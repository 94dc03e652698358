"""Checks prefarg's printed verdicts against the planted answers.

A yes verdict must carry a witness that is a CC-wise total order on the
framework and that, re-reduced with the generator's own reduction code,
makes the target labelling complete. A no verdict is checked by verdict
only: there is no independent certificate verifier yet.
"""

import json

from generator import Instance, components, is_complete, reduce_attacks

EXIT_FOR = {"yes": 0, "no": 1}


def witness_problem(instance: Instance, classes, reduction: int) -> str | None:
    """Why `classes` (least preferred first) is not a valid witness, or None."""
    if not isinstance(classes, list) or not all(isinstance(c, list) and c for c in classes):
        return "witness is not a list of nonempty classes"
    rank: dict[str, int] = {}
    for index, cls in enumerate(classes):
        for name in cls:
            if name in rank:
                return f"argument {name!r} appears twice in the witness"
            rank[name] = index
    if set(rank) != set(instance.arguments):
        return "witness does not cover exactly the framework's arguments"
    component_of = {}
    for index, block in enumerate(components(instance.arguments, instance.attacks)):
        for name in block:
            component_of[name] = index
    for cls in classes:
        if len({component_of[name] for name in cls}) != 1:
            return "a witness class spans two connected components"
    defeats = reduce_attacks(instance.attacks, rank, reduction)
    if not is_complete(instance.arguments, defeats, instance.labelling):
        return "labelling is not complete on the reduced framework"
    return None


def _result_problem(instance: Instance, payload: dict, reduction: int) -> str | None:
    if payload.get("reduction") != reduction:
        return f"result names reduction {payload.get('reduction')!r}, not {reduction}"
    verdict = payload.get("verdict")
    if verdict != instance.expected:
        return f"verdict {verdict!r}, planted answer {instance.expected!r}"
    if verdict == "yes":
        return witness_problem(instance, payload.get("witness"), reduction)
    return None


def output_problem(instance: Instance, stdout: str, exit_code: int, batch: bool) -> str | None:
    """Why one call's output disagrees with the planted answer, or None.

    A single call prints one result line for `instance.reduction` and exits
    0 on yes, 1 on no. A batch call with `--reduction all` prints one line
    per reduction, tagged with the instance name, and exits 0.
    """
    try:
        payloads = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError:
        return "output is not JSON lines"
    if not all(isinstance(p, dict) for p in payloads):
        return "output line is not a JSON object"
    if batch:
        if exit_code != 0:
            return f"batch exit {exit_code}"
        if [p.get("instance") for p in payloads] != [instance.name] * 4:
            return "batch lines do not name the instance four times"
        for reduction, payload in zip((1, 2, 3, 4), payloads):
            problem = _result_problem(instance, payload, reduction)
            if problem:
                return f"reduction {reduction}: {problem}"
        return None
    if len(payloads) != 1:
        return f"{len(payloads)} result lines, expected 1"
    if exit_code != EXIT_FOR[instance.expected]:
        return f"exit {exit_code} for planted answer {instance.expected!r}"
    return _result_problem(instance, payloads[0], instance.reduction)
