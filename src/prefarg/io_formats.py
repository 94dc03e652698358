"""Text formats: APX frameworks, JSON labellings, order files, DOT, results.

All emitters sort by argument name so output is byte-identical across runs;
parse and emit are mutually inverse on those canonical forms.
"""

import json
import re
from itertools import repeat
from typing import Iterable

from .errors import InvalidOrderError, ParseError, least_names
from .framework import NAME_CHARS, NAME_PATTERN, Attack, Framework, _attacker_table
from .preferences import PreferenceOrder
from .reductions import REDUCTIONS
from .semantics import IN, OUT, UNDEC, Certificate, Labelling
from .solvers import Decision

# A fact sits on one line; `[^\S\n]` is any whitespace but the line break.
_S = r"[^\S\n]*"
_NAME = f"({NAME_CHARS}+)"
_ARG = rf"arg\({_S}{_NAME}{_S}\){_S}\."
_ATT = rf"att\({_S}{_NAME}{_S},{_S}{_NAME}{_S}\){_S}\."
_FACT = re.compile(f"{_ARG}|{_ATT}")
# The facts as `emit_apx` writes them, with no space inside: the first split tried.
_PLAIN_FACT = re.compile(_FACT.pattern.replace(_S, ""))
_COMMENT = re.compile(r"%[^\n]*")
# The ASCII line breaks of `str.splitlines` besides "\n". Its other breaks are not
# ASCII, so an ASCII text without these needs no rewriting of its breaks.
_ASCII_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def parse_apx(text: str) -> Framework:
    """Read `arg(name).` and `att(src,dst).` facts; `%` starts a comment.

    Duplicate facts are harmless; an attack naming an undeclared argument is
    an error, as is any other non-blank content. Lines are those of
    `str.splitlines`, and no fact spans two of them.
    """
    if not text.isascii() or any(map(text.__contains__, _ASCII_BREAKS)):
        text = "\n".join(text.splitlines())  # every break a "\n", which facts and comments end at
    if "%" in text:
        text = _COMMENT.sub("", text)
    # Each fact leaves its three groups, None where the other kind of fact
    # matched, between the pieces of text around the facts. Where the plain
    # facts leave only blank pieces, `_FACT` would split the text the same way.
    parts = _PLAIN_FACT.split(text)
    if "".join(parts[::4]).strip():
        parts = _FACT.split(text)
        if "".join(parts[::4]).strip():
            raise _content_error(text)
    args = frozenset(filter(None, parts[1::4]))
    attacks = zip(filter(None, parts[2::4]), filter(None, parts[3::4]))
    del parts  # four slots a fact, freed before the table build sets the peak memory
    return Framework._derived(args, _attacker_table(args, attacks))


def _content_error(text: str) -> ParseError:
    """Name the first line with other content, from where its facts stop, up to 40 characters."""
    # Facts hold no line break, so what they leave behind keeps every line.
    rest = _FACT.sub("", text)
    junk = rest.lstrip()
    lineno = rest.count("\n", 0, len(rest) - len(junk)) + 1
    line = text.split("\n", lineno)[lineno - 1]
    pos = 0
    for match in _FACT.finditer(line):
        if line[pos : match.start()].strip():
            break
        pos = match.end()
    return ParseError(f"unrecognised content: {line[pos:].lstrip()[:40]!r}", line=lineno)


def emit_apx(framework: Framework) -> str:
    lines = [f"arg({a})." for a in sorted(framework.arguments)]
    lines += [f"att({s},{t})." for s, t in sorted(framework.attacks)]
    return "\n".join(lines) + ("\n" if lines else "")


def _names(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(map(isinstance, value, repeat(str))):
        raise ParseError(f"{what} must be a list of argument names")
    return value


def _load_json(text: str, what: str):
    """Decode JSON text; malformed, too deeply nested or key-repeating input raises ParseError."""

    def unique(pairs: list) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise ParseError(f"{what} repeats the JSON key {key[:40]!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None


def parse_labelling(text: str) -> Labelling:
    """Read a JSON object with "in"/"out"/"undec" lists of argument names."""
    data = _load_json(text, "labelling")
    if not isinstance(data, dict):
        raise ParseError("labelling must be a JSON object")
    unknown = set(data) - {IN, OUT, UNDEC}
    if unknown:
        raise ParseError(f"unknown labelling keys: {least_names(unknown)}")
    sets = {key: _names(data.get(key, []), f"labelling key {key!r}") for key in (IN, OUT, UNDEC)}
    try:
        return Labelling(sets[IN], sets[OUT], sets[UNDEC])
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def emit_labelling(labelling: Labelling) -> str:
    return json.dumps(
        {
            IN: sorted(labelling.in_args),
            OUT: sorted(labelling.out_args),
            UNDEC: sorted(labelling.undec_args),
        }
    )


def parse_order(text: str) -> PreferenceOrder:
    """Read one component per line: classes split by `<`, members by `=`.

    Classes run from least to most preferred, e.g. `a < b < c = d`.
    """
    classes: list[frozenset[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        for chunk in line.split("<"):
            names = [n.strip() for n in chunk.split("=")]
            for name in names:
                if not NAME_PATTERN.match(name):
                    raise ParseError(f"bad argument name {name[:40]!r}", line=lineno)
            classes.append(frozenset(names))
    try:
        return PreferenceOrder(classes)
    except InvalidOrderError as exc:
        raise ParseError(str(exc)) from None


_DOT_COLOURS = {IN: "green", OUT: "red", UNDEC: "gray"}
_DOT_KEYWORDS = frozenset(("node", "edge", "graph", "digraph", "subgraph", "strict"))


def _dot_id(name: str) -> str:
    """The name as a DOT ID: quoted if a keyword, or if it starts with a digit but is no numeral."""
    if name.lower() in _DOT_KEYWORDS or (name[0].isdigit() and not name.isdigit()):
        return f'"{name}"'
    return name


def emit_dot(
    framework: Framework,
    labelling: Labelling | None = None,
    highlight: Iterable[Attack] = (),
) -> str:
    """DOT digraph, nodes coloured green/red/gray when a labelling is given.

    Names that DOT would misread, its keywords in any case and names that
    start with a digit but are not all digits, are written quoted.
    """
    lines = ["digraph framework {"]
    for name in sorted(framework.arguments):
        if labelling is None:
            lines.append(f"  {_dot_id(name)};")
        else:
            colour = _DOT_COLOURS[labelling.label(name)]
            lines.append(f"  {_dot_id(name)} [style=filled fillcolor={colour}];")
    marked = {tuple(e) for e in highlight}
    for src, dst in sorted(framework.attacks):
        edge = f"  {_dot_id(src)} -> {_dot_id(dst)}"
        lines.append(f"{edge} [color=red];" if (src, dst) in marked else f"{edge};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def result_payload(decision: Decision) -> dict:
    """The JSON object `emit_result` writes for a decision, before encoding."""
    witness, cert = decision.witness, decision.certificate
    return {
        "verdict": decision.verdict,
        "reduction": decision.reduction,
        "witness": None if witness is None else [sorted(cls) for cls in witness.classes],
        "certificate": None if cert is None else {**cert._asdict(), "witness": list(cert.witness)},
    }


def emit_result(decision: Decision, fmt: str = "json") -> str:
    """Serialise a decision; the JSON form is what `parse_result` reads back.

    A no decision without a certificate is the oracle's: no CC-wise order
    made the labelling complete.
    """
    if fmt == "json":
        return json.dumps(result_payload(decision))
    if fmt != "text":
        raise ValueError(f"unknown result format {fmt!r}")
    if decision.yes:
        if decision.witness is None or not decision.witness.classes:
            shown = "(empty order)"
        else:
            shown = " < ".join(" = ".join(sorted(cls)) for cls in decision.witness.classes)
        return f"YES (reduction {decision.reduction}) witness: {shown}"
    cert = decision.certificate
    if cert is None:
        return f"NO (reduction {decision.reduction}) no CC-wise order makes the labelling complete"
    where = ",".join(cert.witness)
    return (
        f"NO (reduction {decision.reduction}) condition {cert.condition}"
        f" fails at {where}: {cert.detail}"
    )


def parse_result(text: str) -> Decision:
    data = _load_json(text, "result")
    if not isinstance(data, dict) or "verdict" not in data or "reduction" not in data:
        raise ParseError("result must be a JSON object with verdict and reduction")
    verdict, reduction = data["verdict"], data["reduction"]
    if verdict not in ("yes", "no"):
        raise ParseError(f'result verdict must be "yes" or "no", got {verdict!r}')
    if type(reduction) is not int or reduction not in REDUCTIONS:
        raise ParseError(f"result reduction must be one of {REDUCTIONS}, got {reduction!r}")
    bad = "result has a malformed witness or certificate: "
    witness, cert = data.get("witness"), data.get("certificate")
    order = certificate = None
    if witness is not None:
        if not isinstance(witness, list):
            raise ParseError(bad + "witness must be a list of classes")
        try:
            order = PreferenceOrder(_names(cls, bad + "witness class") for cls in witness)
        except InvalidOrderError as exc:
            raise ParseError(bad + str(exc)) from None
    if cert is not None:
        if not isinstance(cert, dict) or type(cert.get("condition")) is not int:
            raise ParseError(bad + "certificate must be an object with an integer condition")
        names = _names(cert.get("witness"), bad + "certificate witness")
        detail = cert.get("detail", "")
        if not isinstance(detail, str):
            raise ParseError(bad + "certificate detail must be a string")
        certificate = Certificate(cert["condition"], tuple(names), detail)
    if verdict == "yes" and (order is None or certificate is not None):
        raise ParseError(bad + 'a "yes" result needs a witness and no certificate')
    if verdict == "no" and order is not None:
        raise ParseError(bad + 'a "no" result has no witness')
    return Decision(verdict == "yes", reduction, order, certificate)
