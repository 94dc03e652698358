"""Command line front end.

Subcommands: solve (also called decide), reduce, labellings, oracle, gen.
Exit codes: 0 for a yes (under `--reduction all`, when some reduction says
yes), 1 for a no (every reduction says no), 2 for input errors, 3 for
internal errors (a witness that failed verification). Results go to stdout,
diagnostics to stderr. `labellings`, `oracle` and `gen --labelling-mode
complete` refuse inputs above the library's enumeration caps with exit 2,
and `gen` refuses more expected attacks than its budget, a labelling path
without a labelling mode, and one path for both of its files.
"""

import argparse
import gc
import json
import random
import sys
from functools import partial
from pathlib import Path

from .errors import PrefargError
from .framework import Framework
from .io_formats import (
    emit_apx,
    emit_dot,
    emit_labelling,
    emit_result,
    parse_apx,
    parse_labelling,
    parse_order,
    result_payload,
)
from .oracle import brute_force_ex
from .reductions import REDUCTIONS, reduce as apply_reduction
from .semantics import Labelling, enumerate_complete
from .solvers import Decision, decide_all, verify_witness

# `gen` draws one random number per ordered pair of arguments, and keeps
# about args² × attack_prob of them as attacks.
GEN_ARGS_CAP = 5000
GEN_ATTACK_BUDGET = 1_000_000

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _read(path: str) -> str:
    """The file's text, without the UTF-8 byte-order mark some editors write first."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise PrefargError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _load_instance(framework_path: str, labelling_path: str):
    framework = parse_apx(_read(framework_path))
    return framework, parse_labelling(_read(labelling_path))


def _verified(framework, labelling, decisions):
    """Each decision in turn, once `verify_witness` has passed its yes witness.

    A witness object is checked once: the one `decide_all` hands to several
    reductions is the order of equals, under which every reduction keeps every attack.
    """
    checked = object()  # the witness verified last
    for decision in decisions:
        witness, reduction = decision.witness, decision.reduction
        if decision.yes and witness is not checked:
            if witness is None or not verify_witness(framework, labelling, reduction, witness):
                raise _InternalError(f"witness for reduction {reduction} failed verification")
            checked = witness
        yield decision


def _emit(decisions, line) -> int:
    """Print `line(decision)` for each decision; exit 0 when one says yes, else 1."""
    any_yes = False
    for decision in decisions:
        print(line(decision))
        any_yes = any_yes or decision.yes
    return EXIT_YES if any_yes else EXIT_NO


class _InternalError(Exception):
    pass


def _cmd_solve(args) -> int:
    reductions = list(REDUCTIONS) if args.reduction == "all" else [int(args.reduction)]
    if Path(args.framework).is_dir() or Path(args.labelling).is_dir():
        return _run_batch(args, reductions)
    framework, labelling = _load_instance(args.framework, args.labelling)
    decisions = decide_all(framework, labelling, reductions)
    return _emit(_verified(framework, labelling, decisions), partial(emit_result, fmt=args.format))


def _run_batch(args, reductions: list[int]) -> int:
    """Directory mode: instances paired by stem, one JSON line per verdict.

    A pair that cannot be read or decided gets one error line instead, the
    batch goes on, and the run ends with exit 2. `--format text` is refused.
    """
    framework_dir, labelling_dir = Path(args.framework), Path(args.labelling)
    if not (framework_dir.is_dir() and labelling_dir.is_dir()):
        raise PrefargError("batch mode needs both --framework and --labelling directories")
    if args.format != "json":
        raise PrefargError("batch mode writes JSON lines only; --format text needs single files")
    frameworks = {p.stem: p for p in sorted(framework_dir.iterdir()) if p.suffix == ".apx"}
    labellings = {p.stem: p for p in sorted(labelling_dir.iterdir()) if p.suffix == ".json"}
    stems = sorted(set(frameworks) & set(labellings))
    if not stems:
        raise PrefargError("no instances paired by filename stem")
    for stem in sorted(set(frameworks) ^ set(labellings)):
        print(f"warning: unpaired instance {stem!r} skipped", file=sys.stderr)
    failed = False
    for stem in stems:
        try:
            framework, labelling = _load_instance(str(frameworks[stem]), str(labellings[stem]))
            decisions = decide_all(framework, labelling, reductions)
            decisions = list(_verified(framework, labelling, decisions))
        except (PrefargError, OSError) as exc:
            failed = True
            print(json.dumps({"instance": stem, "error": str(exc)}))
            continue
        _emit(decisions, lambda d: json.dumps({"instance": stem, **result_payload(d)}))
    return EXIT_INPUT_ERROR if failed else EXIT_YES


def _cmd_reduce(args) -> int:
    framework = parse_apx(_read(args.framework))
    order = parse_order(_read(args.order))
    reduced = apply_reduction(framework, order, args.reduction)
    output = emit_dot(reduced) if args.dot else emit_apx(reduced)
    sys.stdout.write(output)
    return EXIT_YES


def _cmd_labellings(args) -> int:
    framework = parse_apx(_read(args.framework))
    for labelling in enumerate_complete(framework):
        print(emit_labelling(labelling))
    return EXIT_YES


def _cmd_oracle(args) -> int:
    framework, labelling = _load_instance(args.framework, args.labelling)
    found, order = brute_force_ex(framework, labelling, args.reduction)
    decisions = [Decision(found, args.reduction, witness=order)]
    return _emit(_verified(framework, labelling, decisions), partial(emit_result, fmt=args.format))


def _cmd_gen(args) -> int:
    if args.labelling_out and args.labelling_mode is None:
        raise PrefargError("--labelling-out needs --labelling-mode")
    fw_out, lab_out = args.framework_out, args.labelling_out
    if fw_out and lab_out and Path(fw_out).resolve() == Path(lab_out).resolve():
        raise PrefargError("--framework-out and --labelling-out name the same file")
    if args.args < 0:
        raise PrefargError("--args must be nonnegative")
    if args.args > GEN_ARGS_CAP:
        raise PrefargError(
            f"--args {args.args} exceeds the cap of {GEN_ARGS_CAP}:"
            " gen draws one random number per ordered pair of arguments"
        )
    if not 0.0 <= args.attack_prob <= 1.0:
        raise PrefargError("--attack-prob must lie in [0, 1]")
    expected = args.args * args.args * args.attack_prob
    if expected > GEN_ATTACK_BUDGET:
        raise PrefargError(
            f"--args {args.args} at --attack-prob {args.attack_prob} expects {expected:.0f}"
            f" attacks, above the budget of {GEN_ATTACK_BUDGET}"
        )
    rng = random.Random(args.seed)
    width = max(1, len(str(max(args.args - 1, 0))))
    names = [f"a{i:0{width}d}" for i in range(args.args)]
    attacks = [(s, t) for s in names for t in names if rng.random() < args.attack_prob]
    framework = Framework(names, attacks)
    apx_text = f"% seed: {args.seed}\n" + emit_apx(framework)

    labelling_text = None
    if args.labelling_mode is not None:
        if args.labelling_mode == "complete":
            complete = enumerate_complete(framework)
            labelling = complete[rng.randrange(len(complete))]
        else:
            labelling = _random_labelling(rng, names)
        labelling_text = emit_labelling(labelling) + "\n"

    if args.framework_out:
        Path(args.framework_out).write_text(apx_text, encoding="utf-8")
    else:
        sys.stdout.write(apx_text)
    if labelling_text is not None:
        if args.labelling_out:
            Path(args.labelling_out).write_text(labelling_text, encoding="utf-8")
        else:
            if not args.framework_out:
                sys.stdout.write("\n")
            sys.stdout.write(labelling_text)
    return EXIT_YES


def _random_labelling(rng: random.Random, names: list[str]) -> Labelling:
    return Labelling.from_map({n: rng.choice(("in", "out", "undec")) for n in names})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefarg",
        description=(
            "Decide whether a preference order over arguments can make a"
            " target labelling complete after one of the four reductions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", aliases=["decide"], help="decide and emit a self-verified witness"
    )
    p_solve.add_argument("--framework", required=True, help="APX file (or directory in batch mode)")
    p_solve.add_argument("--labelling", required=True, help="labelling JSON file (or directory)")
    p_solve.add_argument("--reduction", required=True, choices=[*map(str, REDUCTIONS), "all"])
    p_solve.add_argument("--format", choices=["json", "text"], default="json")
    p_solve.set_defaults(func=_cmd_solve)

    p_reduce = sub.add_parser("reduce", help="apply a reduction under an order file")
    p_reduce.add_argument("--framework", required=True)
    p_reduce.add_argument("--order", required=True, help="order file, one component per line")
    p_reduce.add_argument("--reduction", required=True, type=int, choices=REDUCTIONS)
    p_reduce.add_argument("--dot", action="store_true", help="emit DOT instead of APX")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_lab = sub.add_parser("labellings", help="enumerate all complete labellings")
    p_lab.add_argument("--framework", required=True)
    p_lab.set_defaults(func=_cmd_labellings)

    p_oracle = sub.add_parser("oracle", help="brute-force verdict over every order")
    p_oracle.add_argument("--framework", required=True)
    p_oracle.add_argument("--labelling", required=True)
    p_oracle.add_argument("--reduction", required=True, type=int, choices=REDUCTIONS)
    p_oracle.add_argument("--format", choices=["json", "text"], default="json")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a random framework (and labelling)")
    p_gen.add_argument("--args", required=True, type=int)
    p_gen.add_argument("--attack-prob", required=True, type=float)
    p_gen.add_argument("--seed", required=True, type=int)
    p_gen.add_argument("--labelling-mode", choices=["random", "complete"])
    p_gen.add_argument("--framework-out", help="write APX here instead of stdout")
    p_gen.add_argument("--labelling-out", help="write labelling JSON here instead of stdout")
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    # The cyclic collector is paused for the call, and the caller's setting restored: the
    # solve path makes no reference cycles, so the collector would only walk the live index.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except (PrefargError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
