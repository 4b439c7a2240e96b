"""Command-line front end.

Subcommands
-----------
predict    joint law and expectations for one measurement scenario
simulate   run a protocol on one input pair (exact law or sampled)
verify     audit a protocol's output law against the targets, all promise pairs
dj         reject certificates and certificate-size formulas (cert/verify/bounds)
reduce     acceptance-mass audit, tail check, greedy partition, certificates
bounds     budget and moment formula table over n and k

A protocol's n is `--n` (verify, reduce) or the input length (simulate),
at most 16; `--protocol-config` sets its other parameters.

Exit codes: 0 success, 2 bad input or usage, 3 a checked property failed
(law mismatch, tail violation, partition failure, rejected certificate).

Reports are deterministic for fixed arguments and seed: no timestamps,
fixed key order, floats at 15 significant digits, rationals as "p/q"
strings with a float rendition alongside.  The seed is echoed in every
report even when unused.

Scenario JSON for `predict`:

    {"state": "maximally_entangled" | "singlet" | {"matrix": M},
     "n": 4,                          # maximally_entangled only, at most 16
     "alice": SPEC, "bob": SPEC}

where SPEC is one of {"vector": "+-+-" or [1,-1,...]} for a sign-vector
projector, {"bloch": [x,y,z]} for a qubit observable, {"projector": M},
or {"observable": M}; matrix rows are lists, and matrix cells and Bloch
components are JSON ints or floats, a cell possibly an [re, im] pair of them.

CSV column orders (fixed): predict -> p_pp,p_mp,p_pm,p_mm,e_ab,e_a,e_b;
bounds -> n,k,n1_lower_bound,m_of_n,moment_bound,contradiction.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from .dj import (auy_min_n1, n0_certificate, n0_upper_bound, n0_verify,
                 n1_lower_bound, promise_scenarios, RejectCertificate)
from .errors import (InvariantError, NonHaltingError, PartitionError,
                     QccLabError)
from .harness import (ALICE, BOB, Protocol, RandomnessSpace,
                      check_exact_blqms, cost_law, describe_input,
                      output_distribution, sample_distribution)
from .oracle import (BinaryObservable, DensityMatrix, Projector,
                     SignVector, _at_least, bloch_observable, maximally_entangled,
                     observable_to_projector, predict_joint_probs,
                     probs_to_expectations, sign_vector_projector, singlet)
from .protocols import PROTOCOLS, make_protocol, protocol_parameters
from .reduction import contradiction_holds, m_of_n, moment_bound, reduce


def _float_text(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise InvariantError(f"cannot serialize non-finite value {x!r}")
    return f"{x:.15g}"


def _scalar_text(value) -> Optional[str]:
    """JSON token for a scalar, or None when value is a container."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, Fraction):
        return json.dumps(f"{value.numerator}/{value.denominator}")
    if isinstance(value, str):
        return json.dumps(value)
    return None


def _write_json(value, out: io.StringIO, level: int) -> None:
    token = _scalar_text(value)
    if token is not None:
        out.write(token)
        return
    pad = "  " * level
    if isinstance(value, dict):
        if not value:
            out.write("{}")
            return
        out.write("{\n")
        items = list(value.items())
        for i, (key, item) in enumerate(items):
            if not isinstance(key, str):
                raise InvariantError(f"report keys must be strings, got {key!r}")
            out.write("  " * (level + 1) + json.dumps(key) + ": ")
            _write_json(item, out, level + 1)
            out.write(",\n" if i + 1 < len(items) else "\n")
        out.write(pad + "}")
        return
    if isinstance(value, (list, tuple)):
        entries = list(value)
        if not entries:
            out.write("[]")
            return
        if all(_scalar_text(x) is not None for x in entries):
            out.write("[" + ", ".join(_scalar_text(x) for x in entries) + "]")
            return
        out.write("[\n")
        for i, item in enumerate(entries):
            out.write("  " * (level + 1))
            _write_json(item, out, level + 1)
            out.write(",\n" if i + 1 < len(entries) else "\n")
        out.write(pad + "]")
        return
    raise InvariantError(f"cannot serialize {type(value).__name__} in a report")


def canonical_json(report: dict) -> str:
    """Deterministic pretty JSON: fixed key order, floats at 15 digits."""
    out = io.StringIO()
    _write_json(report, out, 0)
    out.write("\n")
    return out.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, Fraction)):
        return _float_text(float(value))
    return str(value)


def render_csv(columns: list[str], rows: list[list]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(cell) for cell in row])
    return out.getvalue()


def _floats(mapping: dict) -> dict:
    return {key: float(value) for key, value in mapping.items()}


def _parse_sign_vector(value) -> SignVector:
    if isinstance(value, str):
        return SignVector.parse(value)
    if isinstance(value, (list, tuple)):
        if any(isinstance(x, bool) or not isinstance(x, int) for x in value):
            raise InvariantError(f'"vector" entries must be integers, got {value!r}')
        return SignVector(tuple(value))
    raise InvariantError(f"expected a sign vector, got {value!r}")


def _json_number(value, what: str) -> float:
    """A JSON int or float as a float; anything else, or an int past the float range, errs."""
    if isinstance(value, bool):
        raise InvariantError(f"{what} must be numbers, not booleans")
    if not isinstance(value, (int, float)) or abs(value) > sys.float_info.max:
        raise InvariantError(f"{what} must be ints or floats in the float range, got {value!r}")
    return float(value)


def _parse_matrix(rows) -> np.ndarray:
    def cell(c):
        if isinstance(c, list):
            if len(c) != 2:
                raise InvariantError("matrix cells are numbers or [re, im] pairs")
            return complex(_json_number(c[0], "matrix cells"), _json_number(c[1], "matrix cells"))
        return complex(_json_number(c, "matrix cells"))
    if not isinstance(rows, list) or not rows or not all(isinstance(row, list) for row in rows):
        raise InvariantError("matrix must be a nonempty list of rows, each a list")
    return np.array([[cell(c) for c in row] for row in rows], dtype=complex)


def _parse_party(doc: dict, key: str) -> Projector:
    spec = doc.get(key)
    if not isinstance(spec, dict):
        raise InvariantError(f'scenario needs an object under "{key}"')
    kinds = [k for k in ("vector", "bloch", "projector", "observable") if k in spec]
    if len(kinds) != 1:
        raise InvariantError(
            f'"{key}" needs exactly one of vector/bloch/projector/observable')
    kind = kinds[0]
    if kind == "vector":
        return sign_vector_projector(_parse_sign_vector(spec[kind]))
    if kind == "bloch":
        direction = spec[kind]
        if not isinstance(direction, list) or len(direction) != 3:
            raise InvariantError('"bloch" takes a 3-component direction')
        return observable_to_projector(bloch_observable(
            [_json_number(x, '"bloch" components') for x in direction]))
    if kind == "projector":
        return Projector(_parse_matrix(spec[kind]))
    return observable_to_projector(BinaryObservable(_parse_matrix(spec[kind])))


# 2^n promise pairs, an n^3-point grid or an n^2 x n^2 state past this n is
# not desk-scale
EXHAUSTIVE_N_LIMIT = 16


def _capped_n(n: int, what: str = "exhaustive enumeration") -> int:
    if n > EXHAUSTIVE_N_LIMIT:
        raise InvariantError(f"{what} is capped at n = {EXHAUSTIVE_N_LIMIT}, got {n}")
    return n


def _load_scenario(path: str) -> tuple[Projector, Projector, DensityMatrix]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise InvariantError("scenario file must hold a JSON object")
    state_spec = doc.get("state", "maximally_entangled")
    if state_spec == "maximally_entangled":
        n = doc.get("n")
        if isinstance(n, bool) or not isinstance(n, int):
            raise InvariantError('maximally_entangled state needs an integer "n"')
        state = maximally_entangled(_capped_n(n, "the maximally_entangled state"))
    elif state_spec == "singlet":
        state = singlet()
    elif isinstance(state_spec, dict) and "matrix" in state_spec:
        state = DensityMatrix(_parse_matrix(state_spec["matrix"]))
    else:
        raise InvariantError(f"unrecognized state spec {state_spec!r}")
    return _parse_party(doc, "alice"), _parse_party(doc, "bob"), state


def _build_protocol(args, n: int) -> Protocol:
    """The command's one protocol; n, capped, fills a field named `n` and no
    config sets it."""
    params = {}
    if args.protocol_config is not None:
        with open(args.protocol_config, encoding="utf-8") as handle:
            params = json.load(handle)
        if not isinstance(params, dict):
            raise InvariantError("protocol config must be a JSON object")
        if "n" in params:
            raise InvariantError("protocol config cannot set n; it is --n or the input length")
    if "n" in protocol_parameters(PROTOCOLS[args.protocol]):
        params["n"] = _capped_n(n)
    protocol = make_protocol(args.protocol, **params)
    if getattr(args, "samples", None) is None and not isinstance(
            protocol.lambda_space, RandomnessSpace):
        if "samples" in args:
            raise InvariantError(f"{args.protocol} has no finite randomness space; pass --samples")
        raise InvariantError(f"{args.command} needs a finite randomness space")
    return protocol


def _promise_front(args) -> tuple[int, Protocol]:
    """Shared front of verify and reduce: a checked n and a sign-vector protocol."""
    n = _capped_n(_at_least(args.command, "n", args.n, 2, even=True))
    kind = PROTOCOLS[args.protocol].input_kind
    if kind != Protocol.input_kind:
        raise InvariantError(f"{args.command} needs sign vectors; {args.protocol} takes {kind}s")
    return n, _build_protocol(args, n)


# ---------------------------------------------------------------------------
# subcommands: each returns its report, a dict or CSV text, and its exit code

Report = tuple[dict | str, int]


def cmd_predict(args) -> Report:
    proj_a, proj_b, state = _load_scenario(args.scenario)
    probs = predict_joint_probs(proj_a, proj_b, state)
    probs_map = probs.as_dict()
    expectations = probs_to_expectations(probs).as_dict()
    if args.format == "csv":
        return render_csv([*probs_map, *expectations],
                          [[*probs_map.values(), *expectations.values()]]), 0
    report = {
        "command": "predict",
        "scenario": args.scenario,
        "seed": args.seed,
        "exact": probs.exact,
        "probs": probs_map if probs.exact else _floats(probs_map),
        "probs_float": _floats(probs_map),
        "expectations": expectations if probs.exact else _floats(expectations),
        "expectations_float": _floats(expectations),
    }
    return report, 0


def cmd_simulate(args) -> Report:
    contract = PROTOCOLS[args.protocol]
    if contract.default_input is None and not (args.a and args.b):
        raise InvariantError(f"{args.protocol} needs --a and --b {contract.input_kind}s")
    # with a default input, --a falls back to it and --b to Alice's input
    input_a = contract.parse_input(args.a or contract.default_input)
    input_b = contract.parse_input(args.b) if args.b else input_a
    protocol = _build_protocol(args, len(input_a))
    report = {
        "command": "simulate",
        "protocol": args.protocol,
        "input_a": args.a or describe_input(input_a),
        "input_b": args.b or describe_input(input_b),
        "seed": args.seed,
    }
    if args.samples is None:
        probs = output_distribution(protocol, input_a, input_b)
        report["mode"] = "exact"
        report["probs"] = probs.as_dict()
        report["probs_float"] = _floats(probs.as_dict())
        report["t_mean"] = cost_law(protocol, input_a, input_b).moment(1)
    else:
        stats = sample_distribution(protocol, input_a, input_b,
                                    samples=args.samples, seed=args.seed)
        probs = stats.probs
        report["mode"] = "sampled"
        report["samples"] = stats.samples
        report["probs"] = _floats(probs.as_dict())
        report["t_mean"] = stats.t_mean
        report["t_max"] = stats.t_max
    report["expectations_float"] = _floats(probs_to_expectations(probs).as_dict())
    return report, 0


def cmd_verify(args) -> Report:
    n, protocol = _promise_front(args)
    report_obj = check_exact_blqms(protocol, promise_scenarios(n), samples=args.samples,
                                   seed=args.seed)
    report = {
        "command": "verify",
        "protocol": args.protocol,
        "n": n,
        "seed": args.seed,
        "mode": report_obj.mode,
        "samples": report_obj.samples,
        "scenarios": report_obj.scenarios,
        "all_full": report_obj.all_full,
        "all_restricted": report_obj.all_restricted,
        "worst_error": report_obj.worst_error,
        "failures": [failure.label for failure in report_obj.failures],
        "failure_count": report_obj.failure_count,
    }
    failed = report_obj.all_full is False or report_obj.all_restricted is False
    return report, 3 if failed else 0


def cmd_dj_cert(args) -> Report:
    a = SignVector.parse(args.a)
    b = SignVector.parse(args.b)
    cert = n0_certificate(a, b)
    report = {
        "command": "dj cert",
        "n": a.n,
        "seed": args.seed,
        "index": cert.index,
        "alpha": cert.alpha,
        "bits": "".join(str(bit) for bit in cert.encode(a.n)),
        "bit_length": cert.bit_length(a.n),
        "bit_bound": n0_upper_bound(a.n),
    }
    return report, 0


def cmd_dj_verify(args) -> Report:
    own = SignVector.parse(args.vector)
    if any(ch not in "01" for ch in args.cert) or not args.cert:
        raise InvariantError("--cert takes the certificate's 0/1 bit string")
    cert = RejectCertificate.decode([int(ch) for ch in args.cert], own.n)
    party = ALICE if args.party == "A" else BOB
    verdict = n0_verify(party, own, cert)
    report = {
        "command": "dj verify",
        "n": own.n,
        "seed": args.seed,
        "party": args.party,
        "index": cert.index,
        "alpha": cert.alpha,
        "accepted": verdict.accepted,
        "reason": verdict.reason,
    }
    return report, 0 if verdict.accepted else 3


def cmd_dj_bounds(args) -> Report:
    rows = []
    for n in args.n:
        _at_least("dj bounds", "n", n, 2, even=True)
        trivial_cost = n + 1
        width = n0_upper_bound(n)
        n1 = n1_lower_bound(n)
        rows.append({
            "n": n,
            "n0_upper_bound": width,
            "n1_lower_bound": n1,
            "n1_vacuous": n1 < 0,
            "d_trivial": trivial_cost,
            "auy_min_n1": auy_min_n1(trivial_cost, width),
        })
    return {"command": "dj bounds", "seed": args.seed, "rows": rows}, 0


def cmd_reduce(args) -> Report:
    if args.M is not None and args.M < 1:
        raise InvariantError(f"--M is a bit budget and must be at least 1, got {args.M}")
    n, protocol = _promise_front(args)
    threshold = args.M if args.M is not None else n + 2
    sections, ok = reduce(protocol, n, threshold)
    report = {
        "command": "reduce",
        "protocol": args.protocol,
        "n": n,
        "M": threshold,
        "seed": args.seed,
        **sections,
    }
    return report, 0 if ok else 3


def cmd_bounds(args) -> Report:
    rows = []
    for n in args.n:
        _at_least("bounds", "n", n, 2, even=True)
        for k in args.k:
            rows.append({
                "n": n,
                "k": k,
                "n1_lower_bound": n1_lower_bound(n),
                "m_of_n": m_of_n(n),
                "moment_bound": moment_bound(n, k),
                "contradiction": contradiction_holds(n),
            })
    if args.format == "csv":
        return render_csv(list(rows[0]), [list(row.values()) for row in rows]), 0
    return {"command": "bounds", "seed": args.seed, "rows": rows}, 0


# ---------------------------------------------------------------------------
# parser wiring


def _add_common(sub: argparse.ArgumentParser, fmt: bool = False) -> None:
    sub.add_argument("--out", help="write the report to this path instead of stdout")
    sub.add_argument("--seed", type=int, default=0,
                     help="random seed, echoed in the report (default 0)")
    if fmt:
        sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcc-lab",
        description="Exact oracles, classical protocols, and certificate "
                    "audits for binary measurements on shared states.")
    commands = parser.add_subparsers(dest="command", required=True)

    predict = commands.add_parser("predict", help="joint law for one scenario")
    predict.add_argument("--scenario", required=True, help="scenario JSON path")
    _add_common(predict, fmt=True)
    predict.set_defaults(func=cmd_predict)

    simulate = commands.add_parser("simulate", help="run a protocol on one pair")
    simulate.add_argument("--protocol", required=True, choices=sorted(PROTOCOLS))
    simulate.add_argument("--a", help="Alice's input (sign vector or x,y,z)")
    simulate.add_argument("--b", help="Bob's input (sign vector or x,y,z)")
    simulate.add_argument("--samples", type=int,
                          help="Monte Carlo sample count (default: exact)")
    simulate.add_argument("--protocol-config",
                          help="JSON file of protocol parameters; n is the input length")
    _add_common(simulate)
    simulate.set_defaults(func=cmd_simulate)

    verify = commands.add_parser(
        "verify", help="audit the output law against all promise-pair targets")
    verify.add_argument("--protocol", required=True, choices=sorted(PROTOCOLS))
    verify.add_argument("--n", type=int, required=True, help="even, at most 16")
    verify.add_argument("--samples", type=int,
                        help="sampled mode (no pass flags, errors only)")
    verify.add_argument("--protocol-config", help="JSON file of parameters but n")
    _add_common(verify)
    verify.set_defaults(func=cmd_verify)

    dj = commands.add_parser("dj", help="reject certificates and size formulas")
    dj_commands = dj.add_subparsers(dest="dj_command", required=True)

    dj_cert = dj_commands.add_parser("cert", help="witness that the inputs differ")
    dj_cert.add_argument("--a", required=True)
    dj_cert.add_argument("--b", required=True)
    _add_common(dj_cert)
    dj_cert.set_defaults(func=cmd_dj_cert)

    dj_verify = dj_commands.add_parser("verify", help="check a reject certificate")
    dj_verify.add_argument("--party", required=True, choices=("A", "B"))
    dj_verify.add_argument("--vector", required=True, help="the party's own input")
    dj_verify.add_argument("--cert", required=True, help="certificate bit string")
    _add_common(dj_verify)
    dj_verify.set_defaults(func=cmd_dj_verify)

    dj_bounds = dj_commands.add_parser("bounds", help="certificate-size formulas")
    dj_bounds.add_argument("--n", type=int, nargs="+", required=True)
    _add_common(dj_bounds)
    dj_bounds.set_defaults(func=cmd_dj_bounds)

    reduce_cmd = commands.add_parser(
        "reduce", help="tail check, partition, and certificate round trip")
    reduce_cmd.add_argument("--protocol", required=True, choices=sorted(PROTOCOLS))
    reduce_cmd.add_argument("--n", type=int, required=True, help="even, at most 16")
    reduce_cmd.add_argument("--M", type=int,
                            help="bit budget (default n + 2)")
    reduce_cmd.add_argument("--protocol-config", help="JSON file of parameters but n")
    _add_common(reduce_cmd)
    reduce_cmd.set_defaults(func=cmd_reduce)

    bounds = commands.add_parser("bounds", help="budget and moment formula table")
    bounds.add_argument("--n", type=int, nargs="+", required=True)
    bounds.add_argument("--k", type=int, nargs="+", default=[1, 2, 3])
    _add_common(bounds, fmt=True)
    bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.func(args)
        text = report if isinstance(report, str) else canonical_json(report)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return code
    except PartitionError as exc:
        print(f"finding: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {describe_input(exc.witness)}", file=sys.stderr)
        return 3
    except NonHaltingError as exc:
        print(f"finding: {exc}", file=sys.stderr)
        if exc.partial_transcript is not None:
            print(f"partial transcript: {exc.partial_transcript.tokens()}",
                  file=sys.stderr)
        return 3
    except (QccLabError, OSError, ValueError) as exc:  # ValueError covers bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
