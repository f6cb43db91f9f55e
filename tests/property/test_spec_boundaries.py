"""Spec validation is the one boundary: what it accepts runs, what it rejects
is rejected by every front end.

Numeric spec fields must be finite (``Infinity`` passed validation and then
failed mid-run, or ran with an infinite mttf) and ints must not be bools
(JSON ``true`` ran one data set and hashed to another cache key than ``1``).
Every scenario dict :meth:`Session.from_dict` accepts must pass ``config``
and round-trip through its ``--emit`` output; every non-finite or bool value
of a numeric field — and every non-finite ``workload.options`` or
``scheduler.options`` value — must be rejected by ``Session.from_dict``, by
``config --scenario`` (exit 2) and by ``POST /v1/scenarios`` (4xx).  Removed
fields (``runtime.checkpoint``) fail the same way at every boundary.
"""

from __future__ import annotations

import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.cache.disk import NullCache
from repro.cli import main
from repro.exceptions import SpecificationError
from repro.scenario.spec import ScenarioSpec
from repro.service import JobStore, ServiceApp, WorkerPool

BASE = {
    "name": "boundary",
    "workload": {"num_tasks": 6, "num_processors": 4},
    "scheduler": {"epsilon": 1},
    "runtime": {"num_datasets": 10},
}
INT_FIELDS = (
    "workload.num_tasks", "workload.num_processors", "workload.seed",
    "scheduler.epsilon", "faults.seed", "faults.group_size", "faults.spares",
    "runtime.num_datasets", "runtime.queue_capacity",
)
REAL_FIELDS = (
    "workload.granularity", "scheduler.period", "scheduler.period_slack",
    "faults.mttf_periods", "faults.mttr_periods", "faults.weibull_shape",
    "faults.repair_shape", "faults.load_coupling", "faults.join_periods",
    "faults.preempt_periods", "runtime.rebuild_overhead",
)
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=40),
    st.floats(allow_nan=True, allow_infinity=True),
)
CHECKS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _with(path: str, value) -> dict:
    data = copy.deepcopy(BASE)
    section, field = path.split(".")
    data.setdefault(section, {})[field] = value
    return data


def _config(data: dict, *flags: str, capsys) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(data))
        code = main(["config", "--scenario", str(path), *flags])
    out, err = capsys.readouterr()
    return code, out, err


def _post_status(app, path: str, body) -> int:
    """The HTTP status of one POST to the service's WSGI callable."""
    raw = json.dumps(body).encode()  # inf/nan travel as JSON Infinity/NaN
    environ = {
        "REQUEST_METHOD": "POST",
        "PATH_INFO": path,
        "QUERY_STRING": "",
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    status = []
    b"".join(app(environ, lambda line, headers: status.append(int(line.split()[0]))))
    return status[0]


@pytest.fixture(scope="module")
def app():
    return ServiceApp(JobStore(cache=NullCache(), pool=WorkerPool()))


@CHECKS
@given(path=st.sampled_from(INT_FIELDS + REAL_FIELDS), value=VALUES)
def test_accepted_specs_survive_config(path, value, capsys):
    data = _with(path, value)
    try:
        spec = Session.from_dict(data).spec
    except SpecificationError:
        return
    code, out, _ = _config(data, capsys=capsys)
    assert code == 0 and out.startswith("scenario OK")
    code, out, _ = _config(data, "--emit", capsys=capsys)
    assert code == 0
    assert ScenarioSpec.from_json(out) == spec


@CHECKS
@given(
    path=st.sampled_from(INT_FIELDS + REAL_FIELDS),
    value=st.sampled_from([True, False, math.inf, -math.inf, math.nan]),
)
def test_non_finite_and_bool_values_are_rejected_everywhere(path, value, capsys, app):
    data = _with(path, value)
    with pytest.raises(SpecificationError, match=path):
        Session.from_dict(data)
    code, _, err = _config(data, capsys=capsys)
    assert code == 2 and path in err
    assert 400 <= _post_status(app, "/v1/scenarios", {"scenario": data}) < 500


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("scheduler", "period", math.inf),
        ("faults", "mttf_periods", math.inf),
        ("runtime", "num_datasets", True),
    ],
)
def test_reported_cases(section, field, value):
    with pytest.raises(SpecificationError, match=f"{section}.{field}"):
        ScenarioSpec.from_dict(_with(f"{section}.{field}", value))


@pytest.mark.parametrize("owner", ["workload", "scheduler"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, [1.0, math.inf]])
def test_non_finite_option_values_are_rejected_everywhere(owner, value, capsys, app):
    path = f"{owner}.options.k"
    data = _with(f"{owner}.options", {"k": value})
    with pytest.raises(SpecificationError, match=path):
        Session.from_dict(data)
    code, _, err = _config(data, capsys=capsys)
    assert code == 2 and path in err
    assert 400 <= _post_status(app, "/v1/scenarios", {"scenario": data}) < 500


def test_removed_checkpoint_field_is_rejected_at_every_boundary(capsys, app):
    data = _with("runtime.checkpoint", False)
    with pytest.raises(SpecificationError, match="checkpoint"):
        Session.from_dict(data)
    code, _, err = _config(data, capsys=capsys)
    assert code == 2 and "checkpoint" in err and "Traceback" not in err
    assert _post_status(app, "/v1/scenarios", {"scenario": data}) == 422
    with pytest.raises(SystemExit) as exit_info:
        main(["runtime", "--no-checkpoint"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --no-checkpoint" in capsys.readouterr().err
