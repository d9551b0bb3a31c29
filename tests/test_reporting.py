"""The report checker against the JSON Schema oracle, on every README artifact."""

import copy
import json
import math

import jsonschema
import pytest

from noisyip.cli import main
from noisyip.reporting import (REPORT_SCHEMA, ExperimentReport, Rate, ReportError,
                               validate_report)
from test_cli import modules_after, readme_examples

# what jsonschema.validate(payload, REPORT_SCHEMA) builds for each call
ORACLE = jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)
MISSING = object()


@pytest.fixture(scope="module")
def readme_payloads(tmp_path_factory):
    """The payload of every README example, run as written."""
    out = tmp_path_factory.mktemp("readme") / "out.json"
    payloads = []
    for argv in readme_examples():
        assert main(argv[1:] + ["--out", str(out)]) == 0, argv
        payloads.append(json.loads(out.read_text()))
    return payloads


def mutated(payload, path, value):
    """A copy of ``payload`` with the key at ``path`` set to ``value``, or
    deleted if ``value`` is MISSING."""
    payload = copy.deepcopy(payload)
    *parents, key = path
    node = payload
    for k in parents:
        node = node[k]
    if value is MISSING:
        del node[key]
    else:
        node[key] = value
    return payload


NOT_OBJECTS = [[], "x", 1, 1.5, None, True]


def cases(payload):
    """(path, value, valid): each rule of the schema broken once, and changes
    the schema allows."""
    for key in REPORT_SCHEMA["required"]:
        yield (key,), MISSING, False
    yield ("query_counts",), MISSING, True
    yield ("record",), MISSING, True
    for value, valid in [("1", True), (1, False), ("2", False), (1.0, False),
                         (True, False)]:
        yield ("schema_version",), value, valid
    for value, valid in [("gl", True), (7, False), (None, False), (["ka"], False)]:
        yield ("subcommand",), value, valid
    for value, valid in [(7, True), (7.0, True), (-3, True), (7.5, False),
                         (True, False), (False, False), ("7", False), (None, False)]:
        yield ("seed",), value, valid
    for key in ["config", "record", "query_counts", "metrics"]:
        yield (key,), {}, True
        for value in NOT_OBJECTS:
            yield (key,), value, False
    yield ("extra",), [1, True, None], True
    for name in payload["metrics"]:
        m = ("metrics", name)
        yield m + ("value",), MISSING, False
        yield m + ("trials",), MISSING, False
        yield m + ("half_width",), MISSING, True
        for value, valid in [(3, True), (3.0, True), (0, True), (3.5, False),
                             (True, False), (False, False), ("3", False),
                             (None, False)]:
            yield m + ("trials",), value, valid
        for key in ["value", "half_width"]:
            for value, valid in [(None, True), (3, True), (0.25, True),
                                 (float("inf"), True), ("0.5", False),
                                 (True, False), (False, False), ([0.5], False),
                                 ({}, False)]:
                yield m + (key,), value, valid
        for value in NOT_OBJECTS:
            yield m, value, False
        yield m + ("extra",), "anything", True


def accepts(check, payload) -> bool:
    try:
        check(payload)
    except (ReportError, jsonschema.ValidationError):
        return False
    return True


def test_checker_agrees_with_jsonschema_on_readme_artifacts(readme_payloads):
    assert len(readme_payloads) >= 8
    verdicts = []
    for payload in readme_payloads:
        assert accepts(validate_report, payload) and accepts(ORACLE.validate, payload)
        for path, value, valid in cases(payload):
            p = mutated(payload, path, value)
            ours, oracle = accepts(validate_report, p), accepts(ORACLE.validate, p)
            assert ours == oracle == valid, (payload["subcommand"], path, value)
            verdicts.append(valid)
    # both sides of the contract are exercised, many times each
    assert verdicts.count(True) > 300 and verdicts.count(False) > 500


@pytest.mark.parametrize("payload", [[], "report", None, 1, 1.0, True])
def test_a_payload_that_is_not_an_object_is_rejected(payload):
    assert not accepts(ORACLE.validate, payload)
    with pytest.raises(ReportError, match="^report: "):
        validate_report(payload)


def test_report_error_names_the_failing_path():
    report = ExperimentReport("ka", 1, {})
    report.add_metric("abort_rate", 0.1, trials=10)
    payload = report.to_dict()
    assert issubclass(ReportError, ValueError)
    metric = ("metrics", "abort_rate")
    for path, value, match in [
        (metric + ("trials",), True, r"^report\.metrics\.abort_rate\.trials: "),
        (metric + ("value",), "0.1", r"^report\.metrics\.abort_rate\.value: "),
        (metric + ("value",), MISSING, r"^report\.metrics\.abort_rate: .*'value'"),
        (("schema_version",), "2", r"^report\.schema_version: "),
        (("seed",), MISSING, r"^report: .*'seed'"),
    ]:
        with pytest.raises(ReportError, match=match):
            validate_report(mutated(payload, path, value))
    report.metrics["abort_rate"]["trials"] = None
    with pytest.raises(ReportError, match=r"abort_rate\.trials"):
        report.to_json_bytes()


def test_a_command_writes_its_artifact_without_importing_jsonschema(tmp_path):
    out = tmp_path / "recon.json"
    assert not {"jsonschema", "referencing"} & modules_after(
        ["recon", "--estimator", "laplace", "--eps", "1.0", "--n", "36",
         "--samples", "4096", "--seed", "7", "--out", str(out)])
    validate_report(json.loads(out.read_text()))
    assert accepts(ORACLE.validate, json.loads(out.read_text()))


@pytest.mark.parametrize("hits, trials, rate, half_width", [
    (0, 10, 0.0, 0.0),
    (10, 10, 1.0, 0.0),
    (3, 12, 0.25, 1.96 * math.sqrt(0.25 * 0.75 / 12)),
    (1, 3, 1 / 3, 1.96 * math.sqrt((1 / 3) * (1 - 1 / 3) / 3)),
])
def test_rate_is_hits_over_trials_with_the_wald_half_width(hits, trials, rate,
                                                           half_width):
    r = Rate(hits, trials)
    assert (r.hits, r.trials, r.rate, r.half_width) == (hits, trials, rate, half_width)


def test_rate_without_trials_is_nan():
    r = Rate(0, 0)
    assert r.trials == 0
    assert math.isnan(r.rate) and math.isnan(r.half_width)


def test_rate_metric_writes_the_rate_and_its_half_width():
    from noisyip.cli import _rate_metric

    report = ExperimentReport("ka", 1, {})
    assert _rate_metric(report, "agreement", 7, 20) == Rate(7, 20).rate
    assert report.metrics["agreement"] == {
        "value": 0.35, "half_width": Rate(7, 20).half_width, "trials": 20}
