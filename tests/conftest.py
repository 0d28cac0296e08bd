"""Shared pytest hooks."""


def pytest_collection_modifyitems(items):
    """Run the tests that train the full pipeline (marked ``trained``, tens
    of minutes) after every other test, so that a failure anywhere else is
    reported without waiting for them."""
    items.sort(key=lambda item: item.get_closest_marker("trained") is not None)
