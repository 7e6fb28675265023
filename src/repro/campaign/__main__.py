"""``python -m repro.campaign`` entry point.

Everything — presets, engines and the durable checkpoint store
(``--store`` / ``--resume`` / ``--status``) — is handled by
:func:`repro.campaign.cli.main`; this module only provides the runnable
module surface.
"""

import sys

from repro.campaign.cli import main

if __name__ == "__main__":
    sys.exit(main())
