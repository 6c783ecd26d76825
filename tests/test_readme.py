"""README's format examples parse, so a format change cannot leave them
stale."""

import re
from pathlib import Path

from mlwb.kripke import KripkeFrame, parse_frame
from mlwb.pipeline import parse_scenario

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def test_scenario_example_is_the_bundled_scenario():
    (text,) = [body for lang, body in BLOCKS if lang == "ini"]
    bundled = (ROOT / "scenarios" / "barcan-two-chain.scn").read_text()
    assert parse_scenario(text, "readme") == parse_scenario(bundled, "readme")


def test_frame_example_parses():
    (text,) = [body for lang, body in BLOCKS
               if body.startswith(("frame ", "worlds "))]
    assert parse_frame(text) == KripkeFrame.make(
        "uvw", [("u", "v"), ("v", "w")], "u")
