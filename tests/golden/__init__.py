"""Golden behaviour digests."""
