"""fastcaplint: the FastCap determinism & concurrency lint.

Per-file rules (R1–R5, R9, W0) live in :mod:`fastcaplint.filerules`;
the cross-file passes — R6 determinism taint and R7 lock-order —
run over the symbol index in :mod:`fastcaplint.index`. Entry point:
``fastcaplint.driver.main`` (wrapped by ``tools/lint/fastcap_lint.py``).
"""

from .driver import main

__all__ = ["main"]
