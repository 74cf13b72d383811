import json

import numpy as np
import pytest

from sepack import (
    Packing,
    Window,
    build_verify_report,
    decode_packing,
    encode_packing,
    generate_named,
    load_packing,
    save_packing,
)
from sepack.errors import (
    InconsistentVerdictError,
    PackingParseError,
    PackingVersionError,
    SepackError,
)


class TestRoundTrip:
    def test_bit_exact_on_irrational_coordinates(self):
        for name, l in [("P1", 8), ("K9", 10), ("J16", 5)]:
            p = generate_named(name, l)
            q = decode_packing(encode_packing(p))
            assert np.array_equal(p.centers, q.centers), name
            assert np.array_equal(p.window.lower, q.window.lower)
            assert q.window.margin == p.window.margin
            assert q.label == p.label and q.radius == p.radius

    def test_file_helpers(self, tmp_path):
        p = generate_named("K6", 6)
        path = tmp_path / "k6.json"
        save_packing(p, path)
        q = load_packing(path)
        assert np.array_equal(p.centers, q.centers)

    def test_encode_is_deterministic(self):
        p = generate_named("K9", 8)
        assert encode_packing(p) == encode_packing(p)


class TestDecodeErrors:
    def test_truncated_file_reports_offset(self):
        data = encode_packing(generate_named("P1", 4))[:-30]
        with pytest.raises(PackingParseError) as err:
            decode_packing(data)
        assert err.value.offset is not None

    def test_not_json(self):
        with pytest.raises(PackingParseError):
            decode_packing(b"not a packing")

    def test_version_mismatch(self):
        doc = json.loads(encode_packing(generate_named("P1", 4)))
        doc["format_version"] = 99
        with pytest.raises(PackingVersionError):
            decode_packing(json.dumps(doc).encode())

    def test_missing_field(self):
        doc = json.loads(encode_packing(generate_named("P1", 4)))
        del doc["window"]
        with pytest.raises(PackingParseError):
            decode_packing(json.dumps(doc).encode())

    def test_hand_written_fixture(self):
        doc = {
            "format_version": 1,
            "dimension": 2,
            "radius": 1.0,
            "label": "three",
            "window": {"lower": [-4.0, -4.0], "upper": [6.0, 4.0], "margin": 0.0},
            "centers": [[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]],
        }
        p = decode_packing(json.dumps(doc).encode())
        report = build_verify_report(p)
        assert report["contact_count"] == 2
        assert report["separability"]["status"] == "WindowCertified"


class TestVerifyReport:
    def test_fields_and_consistency(self):
        p = generate_named("K6", 8)
        report = build_verify_report(p)
        assert report["regularity"] == {"status": "regular", "k": 3}
        assert report["triangle"] is None
        assert report["separability"]["sep"] == "1"
        assert report["separability"]["clean_edges"] == report["contact_count"]
        assert sum(report["degree_histogram"]["interior"].values()) + sum(
            report["degree_histogram"]["boundary"].values()
        ) == report["sphere_count"]

    def test_triangle_forces_violation_status(self):
        from sepack import generate_triangular

        report = build_verify_report(generate_triangular(6))
        assert report["triangle"] is not None
        assert report["separability"]["status"] == "ViolationFound"

    def test_triangle_without_violation_is_a_typed_error(self, monkeypatch):
        from sepack import generate_triangular, separability

        # a broken certifier that calls every edge clean
        monkeypatch.setattr(
            separability, "_edge_cleanliness", lambda p, g, tol, full_audit: (g.edge_count, [])
        )
        with pytest.raises(InconsistentVerdictError, match="triangle") as info:
            build_verify_report(generate_triangular(6))
        assert isinstance(info.value, SepackError)

    def test_deterministic_apart_from_timing(self):
        p = generate_named("P3", 6)
        a = build_verify_report(p)
        b = build_verify_report(p)
        a.pop("timing_seconds")
        b.pop("timing_seconds")
        assert a == b
