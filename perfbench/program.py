"""Locate the gpdistill sources of the checkout the benchmark runs in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch files (worker results, CLI files, spans) stay inside the checkout.
OUT = ROOT / ".perfbench"


def use_checkout_sources() -> None:
    """Put the checkout's src/ first on sys.path; fail if the program is absent."""
    if not (SRC / "gpdistill" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gpdistill sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
