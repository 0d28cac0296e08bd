"""Shared pytest hooks."""


def pytest_collection_modifyitems(items):
    """Run the tests that train the full pipeline (the ``stage1`` fixture of
    the acceptance suite, tens of minutes) after every other test, so that a
    failure anywhere else is reported without waiting for them."""
    items.sort(key=lambda item: "stage1" in getattr(item, "fixturenames", ()))
