"""Command line interface: check, classify, decompose, tables, random, verify.

Algebras travel as a line-oriented text format with canonical scalar
spellings, so files round-trip byte-identically and diff cleanly:

    field Q
    dim 2
    row 0 1
    row 0 0

Reports are stable ``key value`` lines on stdout.  Exit status is 0 for
any successfully computed verdict (including negative ones) and 1 for
errors (parse failures, violated preconditions).
"""

import argparse
import itertools
import os
import random
import sys

from . import catalog
from .checks import (
    annihilator_chain,
    is_associative,
    is_fourth_power_associative,
    is_jordan,
    is_nil,
    is_power_associative,
    nil_profile,
)
from .classify import classify, verify_isomorphism
from .core import new_evolution_algebra
from .decomp import decomposability_hint, graph_components, wedderburn
from .errors import (
    DimensionTooLarge,
    EvolalgError,
    NotPowerAssociative,
    ParseError,
    ShapeError,
)
from .fields import field_from_string


# ---------------------------------------------------------------------------
# the algebra file format


def serialize_algebra_file(A):
    field = A.field
    lines = [f"field {field.describe()}", f"dim {A.n}"]
    for row in A.rows:
        lines.append("row " + " ".join(field.serialize(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_algebra_file(text):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("field "):
        raise ParseError("expected 'field <tag>' on line 1", line=1, column=1)
    field = field_from_string(lines[0][6:])
    if len(lines) < 2 or not lines[1].startswith("dim "):
        raise ParseError("expected 'dim <n>' on line 2", line=2, column=1)
    try:
        dim = int(lines[1][4:])
    except ValueError:
        raise ParseError(f"bad dimension {lines[1][4:]!r}", line=2, column=5)
    if dim < 1:
        raise ShapeError("dimension must be at least 1")
    rows = []
    for k in range(dim):
        ln = 3 + k
        if 2 + k >= len(lines) or not lines[2 + k].startswith("row "):
            raise ParseError(f"expected 'row ...' on line {ln}", line=ln, column=1)
        toks = lines[2 + k][4:].split()
        if len(toks) != dim:
            raise ShapeError(f"line {ln}: expected {dim} entries, got {len(toks)}")
        try:
            rows.append([field.parse(t) for t in toks])
        except ParseError as exc:
            raise ParseError(f"line {ln}: {exc}", line=ln, column=5)
    for extra in lines[2 + dim:]:
        if extra.strip():
            raise ParseError("trailing content after the matrix",
                             line=3 + dim, column=1)
    return new_evolution_algebra(field, rows)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})",
                         offset=exc.start)


def _load(path):
    return parse_algebra_file(_read(path))


def parse_matrix_file(field, text, n):
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        toks = line.split()
        if toks[0] == "row":
            toks = toks[1:]
        if len(toks) != n:
            raise ShapeError(f"matrix line {ln}: expected {n} entries")
        rows.append(tuple([field.parse(t) for t in toks]))
    if len(rows) != n:
        raise ShapeError(f"matrix has {len(rows)} rows, expected {n}")
    return tuple(rows)


def serialize_matrix(field, M):
    return "\n".join(" ".join(field.serialize(v) for v in row) for row in M) + "\n"


# ---------------------------------------------------------------------------
# report helpers


def _fmt_vec(field, v):
    return ",".join(field.serialize(c) for c in v)


def _fmt_type(seq):
    return "[" + ",".join(str(v) for v in seq) + "]"


def _emit_witness(out, prefix, field, witness):
    out.append(f"{prefix} witness condition {witness.condition}")
    out.append(f"{prefix} witness indices " + ",".join(str(i) for i in witness.indices))
    if witness.left is not None:
        out.append(f"{prefix} witness left " + _fmt_vec(field, witness.left))
    if witness.right is not None:
        out.append(f"{prefix} witness right " + _fmt_vec(field, witness.right))


# ---------------------------------------------------------------------------
# commands


_CHECKS = {
    "assoc": is_associative,
    "pa4": is_fourth_power_associative,
    "pa": is_power_associative,
    "jordan": is_jordan,
    "nil": is_nil,
}


def cmd_check(path, which):
    A = _load(path)
    field = A.field
    out = [f"file {path}", f"field {field.describe()}", f"dim {A.n}"]
    for name in which:
        if name == "chain":
            chain = annihilator_chain(A)
            out.append("chain dims " + ",".join(str(s.dim) for s in chain.chain))
            out.append("chain layers " + "|".join(
                ",".join(str(i + 1) for i in layer) for layer in chain.basis_layers))
            out.append("chain type " + _fmt_type(chain.type_sequence))
            out.append(f"chain reaches_full {str(chain.reaches_full).lower()}")
            continue
        rep = _CHECKS[name](A)
        out.append(f"check {name} verdict {str(rep.verdict).lower()}")
        if rep.witness is not None:
            _emit_witness(out, f"check {name}", field, rep.witness)
        if name == "nil":
            prof = nil_profile(A)
            if prof.is_nil:
                out.append(f"profile right_nilpotency_index {prof.right_nilpotency_index}")
                out.append("profile nil_index_pa "
                           + (str(prof.nil_index_pa) if prof.nil_index_pa else "-"))
    return "\n".join(out) + "\n"


def cmd_classify(path, iso_out=None):
    A = _load(path)
    field = A.field
    res = classify(A)
    rec = res.invariants_record
    out = [f"file {path}", f"field {field.describe()}", f"dim {A.n}"]
    out.append(f"classify label {res.label.name()}")
    out.append("classify params "
               + (",".join(field.serialize(p) for p in res.label.params)
                  if res.label.params else "-"))
    out.append(f"classify kind {res.label.kind}")
    out.append(f"classify s {res.s}")
    out.append("classify radical "
               + (res.radical_label.name() if res.radical_label else "-"))
    out.append("classify type " + _fmt_type(rec["type_sequence"]))
    out.append(f"classify dim_ann {rec['dim_ann']}")
    out.append(f"classify associative {str(rec['associative']).lower()}")
    out.append("classify dim_u_square "
               + (str(rec["dim_u_square"]) if rec["dim_u_square"] is not None else "-"))
    out.append("classify verified true")
    for row in res.iso:
        out.append("iso row " + " ".join(field.serialize(v) for v in row))
    for flag in res.flags:
        out.append(f"flag {flag}")
    if iso_out:
        with open(iso_out, "w", encoding="utf-8") as fh:
            fh.write(serialize_matrix(field, res.iso))
    return "\n".join(out) + "\n"


def cmd_decompose(path):
    A = _load(path)
    field = A.field
    out = [f"file {path}", f"field {field.describe()}", f"dim {A.n}"]
    comps = graph_components(A)
    out.append(f"components {len(comps)}")
    for k, (indices, _) in enumerate(comps, start=1):
        out.append(f"component {k} indices " + ",".join(str(i + 1) for i in indices))
    out.append(f"ann_bound_hint {decomposability_hint(A)}")
    try:
        wd = wedderburn(A)
    except NotPowerAssociative as exc:
        out.append("check pa verdict false")
        _emit_witness(out, "check pa", field, exc.witness)
        return "\n".join(out) + "\n"
    out.append("check pa verdict true")
    out.append(f"wedderburn s {wd.s}")
    for k, u in enumerate(wd.idempotents, start=1):
        out.append(f"wedderburn idempotent {k} " + _fmt_vec(field, u))
    out.append("wedderburn radical_indices "
               + (",".join(str(i + 1) for i in wd.radical_indices)
                  if wd.radical_indices else "-"))
    return "\n".join(out) + "\n"


def table_lines(field, dim, grid):
    """Catalog table for one dimension: label, multiplication, type, associativity."""
    lines = [f"# catalog dim {dim} field {field.describe()} grid "
             + ",".join(field.serialize(field.coerce(g)) for g in grid)]
    lines.append("# label | multiplication | type | associative | constraints")
    for fam in catalog.families_of_dim(dim):
        seen = False
        for combo in itertools.product([field.coerce(g) for g in grid],
                                       repeat=fam.nparams):
            try:
                A = catalog.instantiate(fam, field, combo)
            except EvolalgError:
                continue
            seen = True
            chain = annihilator_chain(A)
            tseq = chain.type_sequence if chain.reaches_full else None
            if (tseq if fam.kind == "nil" else None) != fam.type_seq \
                    or is_associative(A).verdict != fam.associative:
                raise EvolalgError(
                    f"catalog metadata disagrees with computation for {fam.name()}")
        if not seen:
            raise EvolalgError(f"grid produced no instance of {fam.name()}")
        display = fam.display or fam.name()
        tcol = _fmt_type(fam.type_seq) if fam.kind == "nil" else "-"
        acol = "yes" if fam.associative else "no"
        lines.append(f"{display} | {catalog.symbolic_multiplication(fam)} | "
                     f"{tcol} | {acol} | {catalog.constraint_text(fam)}")
    return "\n".join(lines) + "\n"


def _require_catalog_dim(dim):
    if dim < 1:
        raise ShapeError("dimension must be at least 1")
    if dim > 6:
        raise DimensionTooLarge("the catalog stops at dimension 6")


def cmd_tables(field, max_dim, grid, out_dir):
    _require_catalog_dim(max_dim)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for dim in range(1, max_dim + 1):
        path = os.path.join(out_dir, f"table_dim{dim}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(table_lines(field, dim, grid))
        paths.append(path)
    return paths


_Q_SCALE_POOL = ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "1/3", "2/3", "3/2")
_Q_PARAM_POOL = ("1", "2", "3", "-1", "1/2", "-2")
_Q_RAW_POOL = ("0", "0", "0", "1", "-1", "2", "-2", "3", "1/2")


def random_algebra(field, dim, seed, mode):
    """Deterministic seeded generator; pa modes disguise a catalog member."""
    rng = random.Random(f"evolalg:{mode}:{field.describe()}:{dim}:{seed}")
    if mode == "raw":
        if field.kind == "prime":
            rows = [[rng.randrange(field.p) for _ in range(dim)] for _ in range(dim)]
        else:
            rows = [[field.parse(rng.choice(_Q_RAW_POOL)) for _ in range(dim)]
                    for _ in range(dim)]
        return new_evolution_algebra(field, rows)
    _require_catalog_dim(dim)
    fams = [f for f in catalog.families_of_dim(dim)
            if mode == "pa_mixed" or f.kind == "nil"]
    while True:
        fam = rng.choice(fams)
        if field.kind == "prime":
            params = tuple(rng.randrange(1, field.p) for _ in range(fam.nparams))
        else:
            params = tuple(field.parse(rng.choice(_Q_PARAM_POOL))
                           for _ in range(fam.nparams))
        try:
            A = catalog.instantiate(fam, field, params)
            break
        except EvolalgError:
            continue
    sigma = list(range(dim))
    rng.shuffle(sigma)
    lam = []
    for i in range(dim):
        if not field.is_zero(A.rows[sigma[i]][sigma[i]]):
            # scaling an idempotent direction would leave the pinned a_ii in {0,1}
            lam.append(field.one)
        elif field.kind == "prime":
            lam.append(rng.randrange(1, field.p))
        else:
            lam.append(field.parse(rng.choice(_Q_SCALE_POOL)))
    rows = [[field.div(field.mul(field.mul(lam[i], lam[i]),
                                 A.rows[sigma[i]][sigma[j]]), lam[j])
             for j in range(dim)] for i in range(dim)]
    return new_evolution_algebra(field, rows)


def cmd_random(field, dim, seed, mode, out=None):
    A = random_algebra(field, dim, seed, mode)
    text = serialize_algebra_file(A)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def cmd_verify(path_a, path_b, matrix_path):
    A = _load(path_a)
    B = _load(path_b)
    M = parse_matrix_file(A.field, _read(matrix_path), A.n)
    rep = verify_isomorphism(A, B, M)
    out = [f"verify verdict {str(rep.verdict).lower()}"]
    if rep.witness is not None:
        _emit_witness(out, "verify", A.field, rep.witness)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing


def _grid_arg(text):
    return [t for t in text.split(",") if t]


def build_parser():
    ap = argparse.ArgumentParser(
        prog="evolalg",
        description="exact evolution-algebra toolkit: identity checks, "
                    "decompositions and classification up to dimension 6")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide identity classes of an algebra file")
    p.add_argument("path")
    p.add_argument("--which", default="assoc,pa4,pa,jordan,nil,chain",
                   help="comma list from assoc,pa4,pa,jordan,nil,chain")

    p = sub.add_parser("classify", help="catalog label with a verified isomorphism")
    p.add_argument("path")
    p.add_argument("--iso-out", default=None,
                   help="write the isomorphism matrix to this file")

    p = sub.add_parser("decompose", help="graph components and Wedderburn split")
    p.add_argument("path")

    p = sub.add_parser("tables", help="emit catalog tables per dimension")
    p.add_argument("--field", default="Q")
    p.add_argument("--max-dim", type=int, default=4)
    p.add_argument("--grid", type=_grid_arg, default=["1", "2", "3", "-1"])
    p.add_argument("--out", required=True)

    p = sub.add_parser("random", help="seeded random algebra file")
    p.add_argument("--field", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["pa_mixed", "nil_pa", "raw"], default="pa_mixed")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="check an isomorphism witness matrix")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("matrix")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            which = [w for w in args.which.split(",") if w]
            for w in which:
                if w not in _CHECKS and w != "chain":
                    raise EvolalgError(f"unknown check {w!r}")
            sys.stdout.write(cmd_check(args.path, which))
        elif args.command == "classify":
            sys.stdout.write(cmd_classify(args.path, args.iso_out))
        elif args.command == "decompose":
            sys.stdout.write(cmd_decompose(args.path))
        elif args.command == "tables":
            field = field_from_string(args.field)
            for path in cmd_tables(field, args.max_dim, args.grid, args.out):
                sys.stdout.write(f"wrote {path}\n")
        elif args.command == "random":
            field = field_from_string(args.field)
            text = cmd_random(field, args.dim, args.seed, args.mode, args.out)
            if args.out:
                sys.stdout.write(f"wrote {args.out}\n")
            else:
                sys.stdout.write(text)
        elif args.command == "verify":
            sys.stdout.write(cmd_verify(args.path_a, args.path_b, args.matrix))
        return 0
    except (EvolalgError, OSError) as exc:
        sys.stderr.write(f"error {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
