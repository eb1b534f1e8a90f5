import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import evolalg as ev
from evolalg.cli import (
    cmd_check,
    cmd_classify,
    cmd_decompose,
    cmd_random,
    cmd_tables,
    cmd_verify,
    main,
    parse_algebra_file,
    serialize_algebra_file,
    table_lines,
)

GOLDEN = Path(__file__).parent / "golden"


def write_algebra(tmp_path, name, A):
    path = tmp_path / name
    path.write_text(serialize_algebra_file(A), encoding="utf-8")
    return str(path)


def test_file_roundtrip_bytes(Q, F7):
    for label, field in [((4, 6), Q), ((5, 12), F7)]:
        fam = ev.family(*label)
        params = tuple(field.coerce(1) for _ in range(fam.nparams))
        A = ev.canonical_algebra(ev.make_label(*label, params), field)
        text = serialize_algebra_file(A)
        B = parse_algebra_file(text)
        assert B.rows == A.rows and B.field == A.field
        assert serialize_algebra_file(B) == text


def test_parse_errors():
    with pytest.raises(ev.ParseError):
        parse_algebra_file("dim 2\nrow 0 0\n")
    with pytest.raises(ev.ShapeError):
        parse_algebra_file("field Q\ndim 3\nrow 0 0\nrow 0 0 0\nrow 0 0 0\n")
    with pytest.raises(ev.ForbiddenCharacteristic):
        parse_algebra_file("field Fp:5\ndim 1\nrow 0\n")
    with pytest.raises(ev.ParseError):
        parse_algebra_file("field Q\ndim 1\nrow 0\nextra junk\n")
    with pytest.raises(ev.ShapeError):
        parse_algebra_file("field Q\ndim 0\n")


def test_cmd_check_report(tmp_path, Q):
    A = ev.canonical_algebra(ev.make_label(4, 6, ()), Q)
    path = write_algebra(tmp_path, "n46.alg", A)
    out = cmd_check(path, ["assoc", "pa", "jordan", "nil", "chain"])
    lines = out.splitlines()
    assert "check assoc verdict false" in lines
    assert "check assoc witness indices 1,2" in lines
    assert "check pa verdict true" in lines
    assert "check jordan verdict true" in lines
    assert "check nil verdict true" in lines
    assert "profile right_nilpotency_index 4" in lines
    assert "profile nil_index_pa 4" in lines
    assert "chain type [1,2,1]" in lines


def test_cmd_check_pa_witness(tmp_path, Q):
    A = ev.new_evolution_algebra(Q, [[2, 0], [1, 0]])
    path = write_algebra(tmp_path, "bad.alg", A)
    out = cmd_check(path, ["pa"])
    assert "check pa verdict false" in out
    assert "witness condition diagonal_not_idempotent" in out


def test_cmd_classify_and_verify(tmp_path, Q):
    A = ev.canonical_algebra(ev.make_label(5, 21, (3,)), Q)
    path = write_algebra(tmp_path, "e521.alg", A)
    iso_path = str(tmp_path / "iso.mat")
    out = cmd_classify(path, iso_out=iso_path)
    assert "classify label E_{5,21}" in out
    assert "classify s 2" in out
    assert "classify verified true" in out
    canon_path = write_algebra(
        tmp_path, "canon.alg",
        ev.canonical_algebra(ev.make_label(
            5, 21, tuple(ev.classify(A).label.params)), Q))
    vout = cmd_verify(path, canon_path, iso_path)
    assert vout.strip() == "verify verdict true"


def test_cmd_verify_negative(tmp_path, Q):
    N22 = ev.canonical_algebra(ev.make_label(2, 2, ()), Q)
    N21 = ev.canonical_algebra(ev.make_label(2, 1, ()), Q)
    pa = write_algebra(tmp_path, "a.alg", N22)
    pb = write_algebra(tmp_path, "b.alg", N21)
    ident = tmp_path / "id.mat"
    ident.write_text("1 0\n0 1\n", encoding="utf-8")
    out = cmd_verify(pa, pb, str(ident))
    assert "verify verdict false" in out
    assert "witness indices 1,1" in out


def test_cmd_decompose(tmp_path, Q):
    A = ev.canonical_algebra(ev.make_label(4, 4, ()), Q)
    path = write_algebra(tmp_path, "n44.alg", A)
    out = cmd_decompose(path)
    assert "components 2" in out
    assert "component 1 indices 1,2" in out
    assert "wedderburn s 0" in out
    assert "ann_bound_hint DecomposableByAnnBound" in out


def test_cmd_random_determinism(F7):
    a = cmd_random(F7, 4, 17, "nil_pa")
    b = cmd_random(F7, 4, 17, "nil_pa")
    assert a == b
    c = cmd_random(F7, 4, 18, "nil_pa")
    assert a != c


def test_cmd_random_modes(Q, F7):
    # pa modes always produce power-associative algebras
    for seed in range(12):
        A = parse_algebra_file(cmd_random(F7, 5, seed, "pa_mixed"))
        assert ev.is_power_associative(A).verdict
        B = parse_algebra_file(cmd_random(Q, 4, seed, "nil_pa"))
        assert ev.is_power_associative(B).verdict and ev.is_nil(B).verdict
    # dim-1 nil mode has a single catalog label
    A = parse_algebra_file(cmd_random(Q, 1, 3, "nil_pa"))
    assert A.rows == ((Q.zero,),)


def test_cmd_tables_golden(tmp_path, Q):
    paths = cmd_tables(Q, 4, ["1", "2", "3", "-1"], str(tmp_path))
    assert len(paths) == 4
    for d in range(1, 5):
        generated = Path(paths[d - 1]).read_text(encoding="utf-8")
        assert generated == (GOLDEN / f"table_dim{d}.txt").read_text(encoding="utf-8")


def test_tables_dim6_contains_stated_entries(F7):
    text = table_lines(F7, 6, ["1", "2", "3"])
    assert "N_{6,25}(a) | " in text and "| [2,2,2] | no" in text
    assert "N_{6,16}(a,b,c,d)" in text
    assert "E_{6,67} = E_{66}" in text


def test_main_exit_codes(tmp_path, Q):
    A = ev.canonical_algebra(ev.make_label(4, 6, ()), Q)
    path = write_algebra(tmp_path, "n46.alg", A)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["check", path, "--which", "assoc,nil"])
    assert code == 0  # negative verdicts still exit 0
    assert "check assoc verdict false" in out.getvalue()

    bad = tmp_path / "bad.alg"
    bad.write_text("field Fp:5\ndim 1\nrow 0\n", encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["check", str(bad)])
    assert code == 1
    assert "ForbiddenCharacteristic" in err.getvalue()

    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["classify", path.replace("n46", "missing")])
    assert code == 1 or isinstance(code, int)


def test_main_random_and_classify_pipeline(tmp_path):
    out_path = str(tmp_path / "rand.alg")
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["random", "--field", "Fp:7", "--dim", "4", "--seed", "5",
                     "--mode", "nil_pa", "--out", out_path]) == 0
    iso_path = str(tmp_path / "iso.mat")
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["classify", out_path, "--iso-out", iso_path]) == 0
    text = out.getvalue()
    assert "classify verified true" in text
    label_line = next(l for l in text.splitlines() if l.startswith("classify label"))
    assert label_line.split()[-1].startswith("N_{4,")


def _run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cli_transcript_lines():
    """Digests of CLI reports on seeded ``evolalg random`` files, run in the
    current directory: per file, the classify report together with its
    --iso-out matrix file, and the decompose report."""
    lines = []
    for field in ("Fp:7", "Fp:13", "Fp:101", "Q"):
        for dim in range(1, 7):
            for mode in ("pa_mixed", "nil_pa"):
                for seed in range(1, 11):
                    _run_main(["random", "--field", field, "--dim", str(dim),
                               "--seed", str(seed), "--mode", mode, "--out", "a.alg"])
                    report = _run_main(["classify", "a.alg", "--iso-out", "iso.mat"])
                    with open("iso.mat", encoding="utf-8") as fh:
                        iso = fh.read()
                    label = next(line.split()[-1] for line in report.splitlines()
                                 if line.startswith("classify label"))
                    lines.append(" ".join((
                        field, f"dim {dim}", mode, f"seed {seed}", label,
                        "classify", _digest(report + iso),
                        "decompose", _digest(_run_main(["decompose", "a.alg"])))))
    return lines


def test_cli_transcripts_match_golden(tmp_path, monkeypatch):
    # written by cli_transcript_lines(); a differing line is a change of
    # CLI output to explain, not a file to regenerate
    monkeypatch.chdir(tmp_path)
    want = (GOLDEN / "cli_transcripts.txt").read_text(encoding="utf-8").splitlines()
    got = cli_transcript_lines()
    assert len(got) == len(want)
    diff = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diff, diff[:5]


@pytest.mark.parametrize("argv", [
    ["random", "--field", "bogus", "--dim", "3", "--seed", "1"],
    ["random", "--field", "Fp:4", "--dim", "3", "--seed", "1"],
    ["random", "--field", "Fp:5", "--dim", "3", "--seed", "1"],
    ["tables", "--field", "bogus", "--out", "t"],
    ["tables", "--field", "Fp:4", "--out", "t"],
    ["tables", "--field", "Fp:5", "--out", "t"],
    ["random", "--field", "Q", "--dim", "0", "--seed", "1"],
    ["random", "--field", "Q", "--dim", "0", "--seed", "1", "--mode", "nil_pa"],
    ["random", "--field", "Fp:7", "--dim", "7", "--seed", "1"],
    ["random", "--field", "Fp:7", "--dim", "7", "--seed", "1", "--mode", "nil_pa"],
    ["tables", "--max-dim", "7", "--out", "t"],
    ["tables", "--max-dim", "0", "--out", "t"],
    ["classify", "undecodable.txt"],
    ["check", "undecodable.txt"],
    ["decompose", "undecodable.txt"],
    ["verify", "good.txt", "good.txt", "undecodable.txt"],
    ["check", "long_scalar.txt"],
], ids=" ".join)
def test_main_bad_arguments_are_typed_errors(tmp_path, monkeypatch, argv):
    # one ``error <Type>: ...`` line and exit 1, never a traceback, and no
    # table file for a dimension outside the catalog
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.txt").write_text("field Q\ndim 2\nrow 0 1\nrow 0 0\n", encoding="utf-8")
    (tmp_path / "undecodable.txt").write_bytes(b"field Q\ndim 2\nrow 0 \xff\nrow 0 0\n")
    (tmp_path / "long_scalar.txt").write_text(
        "field Fp:7\ndim 2\nrow 0 " + "1" * 5000 + "\nrow 0 0\n", encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error "), lines
    if "undecodable.txt" in argv or "long_scalar.txt" in argv:
        assert lines[0].startswith("error ParseError: "), lines
    assert not list(tmp_path.glob("t/*"))


def test_parse_algebra_file_fuzz():
    # any text either parses to an algebra whose file form parses back to
    # the same bytes, or raises a typed EvolalgError
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    token = st.sampled_from(["0", "1", "-1", "3/4", "-2/6", "1/0", "x", "7", "13",
                             "\u0663", "1e3", "+2", "", "9" * 30])
    line = st.one_of(st.text(max_size=12), st.builds(
        lambda key, toks: key + " ".join(toks),
        st.sampled_from(["field ", "dim ", "row ", "", " row "]), st.lists(token, max_size=4)))
    structured = st.builds(
        lambda head, dim, rows: "\n".join([head, dim] + rows),
        st.sampled_from(["field Q", "field Fp:7", "field Fp:13", "field Fp:5",
                         "field Fp:9", "field fp:7", "field "]),
        st.sampled_from(["dim 1", "dim 2", "dim 3", "dim 0", "dim -1", "dim x", "dim 2 "]),
        st.lists(line, max_size=4))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.one_of(st.text(max_size=60), structured))
    def check(text):
        try:
            A = parse_algebra_file(text)
        except ev.EvolalgError:
            return
        out = serialize_algebra_file(A)
        B = parse_algebra_file(out)
        assert B.rows == A.rows and B.field == A.field
        assert serialize_algebra_file(B) == out

    check()
