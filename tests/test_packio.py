import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepack import (
    Packing,
    Window,
    build_verify_report,
    constructible_ids,
    decode_packing,
    encode_packing,
    generate_named,
    load_packing,
    save_packing,
)
from sepack.diagonal import diagonal_construction
from sepack.errors import (
    InconsistentVerdictError,
    MalformedInputError,
    PackingParseError,
    PackingVersionError,
    SepackError,
)
from sepack import packio
from sepack.packio import _VALUE, write_report

from conftest import bad_packing_files, oracle_encode_packing, oracle_write_report, traced_peak


class TestRoundTrip:
    def test_bit_exact_on_irrational_coordinates(self):
        for name, l in [("P1", 8), ("K9", 10), ("J16", 5)]:
            p = generate_named(name, l)
            q = decode_packing(encode_packing(p))
            assert np.array_equal(p.centers, q.centers), name
            assert np.array_equal(p.window.lower, q.window.lower)
            assert q.window.margin == p.window.margin
            assert q.label == p.label

    def test_file_helpers(self, tmp_path):
        p = generate_named("K6", 6)
        path = tmp_path / "k6.json"
        save_packing(p, path)
        q = load_packing(path)
        assert np.array_equal(p.centers, q.centers)

    def test_saving_a_large_window_holds_one_chunk_at_a_time(self, tmp_path):
        # P1 at L = 300 has 90,601 spheres and a 2.6 MB file.  A Python float
        # and a repr per coordinate and the whole text at once peaked at
        # 16.7 MB; streamed one chunk of 4,096 rows at a time, with each
        # distinct value spelled once, the save peaks at 0.4 MB.  The bound
        # is below the file's size, so a writer that holds the whole text
        # fails it.
        p = generate_named("P1", 300)
        with traced_peak() as peak:
            save_packing(p, tmp_path / "p1.json")
        assert peak[0] < 2_000_000

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

    def test_flattened_centers(self):
        doc = json.loads(encode_packing(generate_named("P1", 4)))
        doc["centers"] = [sum(doc["centers"], [])]
        with pytest.raises(PackingParseError, match="2-long rows"):
            decode_packing(json.dumps(doc).encode())

    @pytest.mark.parametrize("radius", ["NaN", "Infinity", "1e400"])
    def test_non_finite_radius(self, radius):
        # json.loads reads all three, as nan, inf and inf
        data = encode_packing(generate_named("P1", 4)).replace(
            b'"radius": 1.0', b'"radius": ' + radius.encode()
        )
        with pytest.raises(MalformedInputError, match="radius must be 1.0"):
            decode_packing(data)

    @pytest.mark.parametrize("radius", ["2.0", "0.5"])
    def test_radius_other_than_one(self, radius):
        # the spheres have radius 1; such a file was read with contact distance 4 or 1
        data = encode_packing(generate_named("P1", 4)).replace(
            b'"radius": 1.0', b'"radius": ' + radius.encode()
        )
        with pytest.raises(PackingParseError, match=f"radius must be 1.0, got {radius}"):
            decode_packing(data)

    @pytest.mark.parametrize(
        "path, error",
        [
            (("format_version",), PackingVersionError),
            (("dimension",), PackingParseError),
            (("radius",), PackingParseError),
            (("window", "margin"), PackingParseError),
            (("window", "lower", 0), PackingParseError),
            (("centers", 1, 0), PackingParseError),
        ],
        ids=["format_version", "dimension", "radius", "margin", "lower", "center"],
    )
    def test_bool_is_not_a_number(self, path, error):
        # the apeirogon has d = 1, the one dimension that true == 1 could pass for;
        # a bool bound or coordinate would read as 1.0 and re-encode to other bytes
        doc = json.loads(encode_packing(generate_named("A", 4)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = True
        with pytest.raises(error):
            decode_packing(json.dumps(doc).encode())

    @pytest.mark.parametrize("case", sorted(bad_packing_files()))
    def test_malformed_scalars_and_nesting_are_parse_errors(self, case):
        # a string radius, margin, bound or coordinate read as a number, an
        # object label was written back as its repr, and the nesting and the
        # huge integer raised RecursionError and OverflowError
        with pytest.raises(PackingParseError):
            decode_packing(bad_packing_files()[case])

    def test_true_in_a_label_still_decodes(self):
        # the bool check runs when the bytes spell true or false anywhere
        p = generate_named("A", 4)
        p = Packing(p.centers, p.window, "true or false")
        assert encode_packing(decode_packing(encode_packing(p))) == encode_packing(p)

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
        report = build_verify_report(generate_named("TRI", 6))
        assert report["triangle"] is not None
        assert report["separability"]["status"] == "ViolationFound"

    def test_triangle_without_violation_is_a_typed_error(self, monkeypatch):
        from sepack import separability

        # a broken certifier that calls every edge clean
        monkeypatch.setattr(
            separability, "_edge_cleanliness", lambda p, g, full_audit: (g.edge_count, [])
        )
        with pytest.raises(InconsistentVerdictError, match="triangle") as info:
            build_verify_report(generate_named("TRI", 6))
        assert isinstance(info.value, SepackError)

    def test_deterministic_apart_from_timing(self):
        p = generate_named("P3", 6)
        a = build_verify_report(p)
        b = build_verify_report(p)
        a.pop("timing_seconds")
        b.pop("timing_seconds")
        witnesses = [r["separability"].pop("violations").tolist() for r in (a, b)]
        assert witnesses[0] == witnesses[1]
        assert a == b

    def test_full_audit_of_a_dirty_window_stays_small(self, tmp_path):
        # TRI at L = 40 has 124,716 witnesses and an 8.8 MB report file; one
        # dict per witness peaked at 45 MB, one (k, 3) int array at 11 MB
        with traced_peak() as peak:
            report = build_verify_report(generate_named("TRI", 40), full_audit=True)
            write_report(report, tmp_path / "tri.json")
        assert len(report["separability"]["violations"]) == 124_716
        assert peak[0] < 16_000_000

    def test_missing_interior_sphere_is_irregular(self):
        p = generate_named("P1", 8)
        interior = np.flatnonzero(p.window.interior_mask(p.centers))
        gone = interior[len(interior) // 2]
        holed = Packing(np.delete(p.centers, gone, axis=0), p.window, p.label)
        assert build_verify_report(p)["regularity"] == {"status": "regular", "k": 4}
        assert build_verify_report(holed)["regularity"] == {"status": "irregular", "k": None}

    def test_empty_interior_is_inconclusive(self):
        report = build_verify_report(generate_named("P1", 2))
        assert report["regularity"] == {"status": "inconclusive", "k": None}

    def test_one_public_certifier_call_on_the_built_graph(self, monkeypatch):
        # the benchmark tracer sees the certifier through these two names
        built, certified = [], []
        build, certify = packio.build_contact_graph, packio.certify_total_separability

        def build_spy(p):
            built.append(build(p))
            return built[-1]

        def certify_spy(*args, **kwargs):
            certified.append((args, kwargs))
            return certify(*args, **kwargs)

        monkeypatch.setattr(packio, "build_contact_graph", build_spy)
        monkeypatch.setattr(packio, "certify_total_separability", certify_spy)
        p = generate_named("K6", 8)
        build_verify_report(p, full_audit=True)
        assert len(built) == 1
        assert len(certified) == 1
        args, kwargs = certified[0]
        assert args == (p, True)
        assert kwargs == {"graph": built[0]}


def _named(name):
    if name.startswith("diagonal-d"):
        return diagonal_construction(int(name[-1]), 1).packing
    return generate_named(name, 4)


def _assert_report_matches_oracle(report, tmp_path):
    write_report(report, tmp_path / "new.json")
    oracle_write_report(report, tmp_path / "old.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


class TestWriterMatchesStandardEncoder:
    """The streamed writer against json.dumps of the whole document."""

    @pytest.mark.parametrize(
        "name",
        sorted(constructible_ids()) + ["TRI", "A", "diagonal-d2", "diagonal-d3", "diagonal-d4"],
    )
    def test_generated_packings_and_their_audits(self, name, tmp_path):
        p = _named(name)
        assert encode_packing(p) == oracle_encode_packing(p)
        _assert_report_matches_oracle(build_verify_report(p, full_audit=True), tmp_path)

    @pytest.mark.parametrize("centers", [np.zeros((0, 3)), [[1.5, -2.0, 0.25]]])
    def test_zero_and_one_sphere(self, centers, tmp_path):
        p = Packing(centers, Window.cube(4, 3))
        assert encode_packing(p) == oracle_encode_packing(p)
        report = build_verify_report(p)
        assert report["separability"]["violations"].tolist() == []
        _assert_report_matches_oracle(report, tmp_path)

    def test_extreme_coordinates(self):
        values = [-0.0, 5e-324, 1e-7, 1e16, 1.7976931348623157e308]
        p = Packing(np.array([values, values[::-1]]), Window(np.full(5, -1.0), np.full(5, 1.0)))
        assert encode_packing(p) == oracle_encode_packing(p)
        assert np.array_equal(decode_packing(encode_packing(p)).centers, p.centers)

    @pytest.mark.parametrize(
        "rows",
        [
            # chunks of 3 rows (rows are kept in lexicographic order): -0.0
            # beside 0.0 in the first chunk, 0.5 and 1.25 repeated across chunks
            [[0.0, -0.0], [-0.0, 0.5], [0.0, 0.5],
             [0.5, 0.5], [0.5, 1.25], [1.25, 0.5],
             [1.25, 1.25]],
            # both 24-character spellings in one chunk with short ones, and
            # one of them again in the next chunk
            [[-1.7976931348623157e308, -0.00012345678901234567],
             [-2.2250738585072014e-308, 5e-324], [5e-324, 0.0],
             [1.0, -2.2250738585072014e-308]],
            # d = 1 and d = 4
            [[-0.0], [0.0], [1.5], [1.5]],
            [[-0.0, -0.0, 1e-7, 1e16], [1.0, -0.0, 0.0, 2.5],
             [1.0, 2.5, 1.0, 2.5], [2.5, 1.0, -1.0, 0.0]],
        ],
        ids=["signed-zeros-and-repeats", "longest-spellings", "d1", "d4"],
    )
    def test_spelling_tables_across_chunks(self, rows, monkeypatch):
        monkeypatch.setattr(packio, "_CHUNK_ROWS", 3)
        p = Packing(rows, Window.cube(1, len(rows[0])))
        assert p.centers.tolist() == rows
        assert encode_packing(p) == oracle_encode_packing(p)
        back = decode_packing(encode_packing(p)).centers
        assert np.array_equal(back.view(np.uint64), p.centers.view(np.uint64))

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_finite_coordinates(self, d, data):
        # values from a small pool, so that rows repeat them within and
        # across chunks of 3 rows
        values = st.floats(allow_nan=False, allow_infinity=False)
        pool = data.draw(st.lists(values, min_size=1, max_size=4))
        rows = data.draw(
            st.lists(st.lists(st.sampled_from(pool), min_size=d, max_size=d), max_size=8)
        )
        p = Packing(np.array(rows, dtype=float).reshape(-1, d), Window.cube(1, d))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(packio, "_CHUNK_ROWS", 3)
            assert encode_packing(p) == oracle_encode_packing(p)

    def test_save_packing_writes_the_encoded_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(packio, "_CHUNK_ROWS", 3)
        k9 = Packing(generate_named("K9", 6).centers, None, "caf\u00e9 \u2200x")
        for p in (k9, Packing(np.zeros((0, 3)), Window.cube(4, 3))):
            save_packing(p, tmp_path / "p.json")
            assert (tmp_path / "p.json").read_bytes() == encode_packing(p)

    @pytest.mark.parametrize(
        "label",
        ['say "hi"', "nul\x00byte", "caf\u00e9 \u2200x \U0001f600", "<bulk rows>",
         '"<bulk rows>"', '"centers": "<bulk rows>"', '"violations": "<bulk rows>"', "\\",
         _VALUE, json.dumps(_VALUE), '"centers": [\n', '"violations": [\n',
         ' ]\n}', '  ]\n'],
    )
    def test_awkward_labels(self, label, tmp_path):
        p = Packing(generate_named("TRI", 4).centers, None, label)
        assert encode_packing(p) == oracle_encode_packing(p)
        assert decode_packing(encode_packing(p)).label == label
        _assert_report_matches_oracle(build_verify_report(p, full_audit=True), tmp_path)

    @pytest.mark.parametrize(
        "rows",
        [
            # chunks of 3 rows: one-digit values only, then every digit count
            # to 6 across the base-10^4 limb boundary, then a partial chunk
            [[0, 1, 9], [2, 3, 4], [5, 6, 7],
             [9, 10, 99], [100, 9999, 10000], [10001, 999999, 0],
             [999999, 10**8, 10**12 + 5]],
            [[0, 999_999, 999_999]],
        ],
    )
    def test_witness_digits_across_chunks(self, rows, tmp_path, monkeypatch):
        monkeypatch.setattr(packio, "_CHUNK_ROWS", 3)
        report = build_verify_report(generate_named("TRI", 4), full_audit=True)
        violations = np.array(rows, dtype=np.int64)
        violations.setflags(write=False)
        report["separability"] = {**report["separability"], "violations": violations}
        _assert_report_matches_oracle(report, tmp_path)

    def test_certified_audit_and_inconclusive_reports(self, tmp_path):
        certified = build_verify_report(generate_named("K6", 8), full_audit=True)
        audit = build_verify_report(generate_named("TRI", 6), full_audit=True)
        inconclusive = build_verify_report(generate_named("P1", 2))
        assert certified["separability"]["violations"].tolist() == []
        assert audit["separability"]["status"] == "ViolationFound"
        assert inconclusive["regularity"] == {"status": "inconclusive", "k": None}
        for report in (certified, audit, inconclusive):
            _assert_report_matches_oracle(report, tmp_path)
