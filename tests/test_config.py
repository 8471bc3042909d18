from mergeshield.config import validate_config


def _errors(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    report = validate_config(path)
    assert not report.ok
    return report.errors


def test_external_policy_fails_validation(tmp_path):
    errors = _errors(tmp_path, "policy:\n  kind: external\n  endpoint: localhost:5555\n")
    assert errors
    assert all(e.startswith("policy") for e in errors)


def test_ramp_geometry_is_an_unknown_road_key(tmp_path):
    errors = _errors(tmp_path, "road:\n  ramp_geometry: [[0.0, 4.0], [200.0, 4.0]]\n")
    assert "road.ramp_geometry: unknown key" in errors
