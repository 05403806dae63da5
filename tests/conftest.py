import pytest
from hypothesis import HealthCheck, settings

from milnor_forge.cli import RunConfig, plan, run

settings.register_profile(
    "fixed",
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fixed")


@pytest.fixture
def job_records():
    """``records(suite, prime, prefix, **options)``: the records one
    (suite, prime) job of the registry gives whose check id starts with
    ``prefix`` (a string or a tuple of strings); there must be some."""

    def records(suite, prime, prefix, **options):
        config = RunConfig(primes=(prime,), suites=(suite,), **options)
        found = [r for r in run(config) if r.check_id.startswith(prefix)]
        assert found, f"no {prefix} records from the {suite} job at l={prime}"
        return found

    return records


@pytest.fixture
def planned_ids():
    """``ids(suite, prime, **options)``: the check ids the registry plans for
    one (suite, prime) job, without running them."""

    def ids(suite, prime, **options):
        [(_, checks)] = plan(RunConfig(primes=(prime,), suites=(suite,), **options))
        return {c.check_id for c in checks}

    return ids
