"""The lazily re-exporting package facades behave like eager ones.

``repro``, ``repro.campaign`` and ``repro.verify`` import a re-exported
name's defining module only on first access (PEP 562).  Every public name
must still resolve to the defining module's object, be listed by
``dir()``, and be bound by a star import; anything else must raise
:class:`AttributeError` as a plain module attribute lookup would.
"""

import importlib

import pytest

import repro
import repro.campaign
import repro.verify

FACADES = [repro, repro.campaign, repro.verify]


def _ids(facades):
    return [facade.__name__ for facade in facades]


@pytest.mark.parametrize("facade", FACADES, ids=_ids(FACADES))
class TestLazyFacade:
    def test_all_is_exactly_the_lazy_exports(self, facade):
        lazy = {name for names in facade._EXPORTS.values() for name in names}
        eager = set(facade.__all__) - lazy
        assert len(facade.__all__) == len(set(facade.__all__))
        assert lazy <= set(facade.__all__)
        assert eager <= {"__version__"}

    def test_each_name_is_the_defining_modules_object(self, facade):
        for module, names in facade._EXPORTS.items():
            defining = importlib.import_module(module)
            for name in names:
                assert getattr(facade, name) is getattr(defining, name), name

    def test_dir_lists_every_public_name(self, facade):
        listed = dir(facade)
        assert listed == sorted(listed)
        assert set(facade.__all__) <= set(listed)

    def test_star_import_binds_every_public_name(self, facade):
        namespace = {}
        exec(f"from {facade.__name__} import *", namespace)
        for name in facade.__all__:
            assert namespace[name] is getattr(facade, name), name

    def test_unknown_name_raises_attribute_error(self, facade):
        with pytest.raises(AttributeError, match="no_such_name"):
            facade.no_such_name
        assert not hasattr(facade, "no_such_name")
        with pytest.raises(ImportError):
            exec(f"from {facade.__name__} import no_such_name", {})
