"""Suite configuration: the `slow` marker, so `pytest -m "not slow"` is a quick loop.

The marker is added here by node id rather than in the test files, so that
no test's own code changes. The full suite still runs every test.
"""

import pytest

# Above 5 s in `pytest --durations=15` on a 2-vCPU VM (Python 3.11, numpy 2.4).
SLOW = {
    "tests/test_acceptance.py::TestAcceptance::test_04_fft_vs_cholesky_equivalence",
    "tests/test_acceptance.py::TestAcceptance::test_08_truncation_bias",
    "tests/test_samplers.py::TestCirculantSample::test_empirical_acf_matches_input",
    "tests/test_samplers.py::TestDaviesHarte::test_midpoint_covariance",
    "tests/test_samplers.py::TestMovingAverage::test_terminal_variance_normalized",
    "tests/test_samplers.py::TestMovingAverage::test_truncation_bias_on_increment_covariance",
    "tests/test_verify.py::TestSeCalibration::test_four_se_rule_rejection_rate_on_iid_gaussians",
}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.split("[", 1)[0] in SLOW:
            item.add_marker(pytest.mark.slow)
