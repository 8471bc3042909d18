"""Reference encoding of step records, independent of the line writer.

``step_dict`` builds the nested dict a step line stands for, field by
field, the way records were serialised before lines were written straight
from the rows: ``_dump({"kind": "step", **step_dict(step)})`` is the line
``records.episode_lines`` must write for ``step``.
"""


def step_dict(step) -> dict:
    """The dict a :class:`~mergeshield.records.StepRecord` serialises to."""
    return {
        "step": step.step,
        "vehicles": [row.to_dict() for row in step.vehicles],
        "topology": {str(vid): list(p) for vid, p in sorted(step.topology.items())},
    }
