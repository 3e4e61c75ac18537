"""A mail-driven step function as a vertex program, for the tests'
reference copies of host-scheduled phases."""

from spanner.sim import NodeProgram


class StepProgram(NodeProgram):
    """Runs ``step(v, rnd, inbox) -> outbox or None`` under ``sim.run``:
    round 1 calls the vertices of ``first`` with an empty inbox, and every
    later round the vertices that received mail.  Every callback votes
    halt, so no vertex acts without mail after round 1."""

    def __init__(self, name, first, step):
        self.name = name
        self.first = set(first)
        self.step = step

    def on_round(self, state, view, rnd, inbox):
        if rnd == 1 and view.vid not in self.first:
            return {}, True
        return self.step(view.vid, rnd, inbox), True
