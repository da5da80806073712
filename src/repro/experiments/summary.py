"""Full-report generation: every table and figure in one document."""

import sys

from repro.experiments import (
    figures,
    headline,
    storage,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.telemetry.core import TELEMETRY

#: The paper's sections in order: (checkpoint key, report title,
#: module).  ``all`` prints the bodies; ``report`` adds the markdown.
SECTIONS = (
    ("table1", "Table 1 — benchmark characteristics", table1),
    ("table2", "Table 2 — branch statistics", table2),
    ("table3", "Table 3 — branch prediction performance", table3),
    ("table4", "Table 4 — branch cost at k+l_bar = 2 and 3", table4),
    ("table5", "Table 5 — forward-slot code expansion", table5),
    ("figures", "Figures 3 and 4 — cost vs pipeline depth", figures),
    ("headline", "Headline — the abstract's comparison", headline),
    ("storage", "Storage — the silicon argument", storage),
)


def render_sections(runner, names=None, checkpoint=None):
    """Every section's rendered text, in :data:`SECTIONS` order.

    With a :class:`~repro.resilience.checkpoint.SweepCheckpoint`, each
    section's text is persisted as soon as it is rendered and replayed
    from disk on the next attempt, so a killed campaign resumes at the
    first incomplete section.
    """
    done = checkpoint.load() if checkpoint is not None else {}
    if done:
        print("resuming sweep: %d/%d tables from checkpoint"
              % (len(done), len(SECTIONS)), file=sys.stderr)
    texts = []
    for key, _, module in SECTIONS:
        if key in done:
            text = done[key]
        else:
            # Through the module, so a rebound ``render`` sees the call.
            with TELEMETRY.span("experiments.render." + key):
                text = module.render(runner, names)
            if checkpoint is not None:
                checkpoint.record(key, text)
        texts.append(text)
    if checkpoint is not None:
        checkpoint.clear()
    return texts


def generate(runner, names=None, checkpoint=None):
    """Render the complete reproduction report as markdown text."""
    parts = [
        "# Reproduction report",
        "",
        "Hwu, Conte & Chang, *Comparing Software and Hardware Schemes "
        "For Reducing the Cost of Branches* (ISCA 1989).",
        "",
        "Input scale %s, %s benchmark runs per spec." % (
            runner.config.scale,
            "default" if runner.config.runs is None
            else runner.config.runs),
        "",
    ]
    texts = render_sections(runner, names, checkpoint)
    for (_, title, _), text in zip(SECTIONS, texts):
        parts += ["## %s" % title, "", "```", text.rstrip(), "```", ""]
    return "\n".join(parts)


def render(runner, names=None):
    return generate(runner, names)
