"""Acceptance criterion 11 asks that the property suite pass.

When ``test_properties.py`` is part of the session, the criterion is moved
to the end of the session and reads the outcomes of those tests through the
``property_outcomes`` fixture, so they do not run a second time.  Otherwise
the fixture is None and the criterion runs the suite in a subprocess.
"""

from pathlib import Path

import pytest

CRITERION_11 = "test_criterion_11_property_suite"
PROPERTY_FILE = "test_properties.py"

_OUTCOMES = pytest.StashKey[dict]()  # per item: phase -> outcome


@pytest.hookimpl(trylast=True)  # after -k, -m and --deselect drop items
def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.name == CRITERION_11)  # stable


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item):
    report = yield
    item.stash.setdefault(_OUTCOMES, {})[report.when] = report.outcome
    return report


@pytest.fixture
def property_outcomes(request):
    """Whether each property test of the session passed, by node id: its
    call passed and none of its phases failed.  None when the session has
    no property test."""
    outcomes = {item.nodeid: item.stash.get(_OUTCOMES, {})
                for item in request.session.items
                if Path(item.nodeid.split("::")[0]).name == PROPERTY_FILE}
    if not outcomes:
        return None
    return {nodeid: phases.get("call") == "passed"
            and "failed" not in phases.values()
            for nodeid, phases in outcomes.items()}
