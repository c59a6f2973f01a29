"""Shared machinery of the repo-specific static analyzers.

The :mod:`repro.analysis` subsystem is a small AST-walking framework tuned to
this repository's two load-bearing invariants (thread-safety of the serving
layer and integer-residency of the quantized decode path) rather than a
general-purpose linter.  This module owns everything the rule families share:

- :class:`Finding` -- one diagnostic with a stable per-rule code (``GB1xx``
  lock discipline, ``DT2xx`` dtype flow, ``OV3xx`` overflow prover) and a
  line-independent fingerprint used by the committed baseline;
- :class:`SourceModule` -- a parsed source file: AST plus the per-line comment
  map the structured annotations (``# guarded-by:``, ``# lock-held:``,
  ``# integer-resident``, ``# quant-point:``) are read from;
- inline suppressions -- ``# repro-analysis: ignore[CODE]`` on the finding's
  line (or the line directly above) marks it suppressed;
- :class:`Baseline` -- a committed JSON file of accepted findings, matched by
  fingerprint so the baseline survives unrelated edits moving line numbers;
- :func:`analyze_paths` / :func:`analyze_repo` -- the runners the CLI and the
  test suite share.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "CODES",
    "Baseline",
    "Finding",
    "SourceModule",
    "analyze_paths",
    "analyze_repo",
    "repo_root",
    "sanction_budget_finding",
]

#: Every diagnostic code the rule families can emit, with a one-line summary.
#: The README documents each in detail; the CLI prints this table for
#: ``--list-codes``.
CODES: Dict[str, str] = {
    "GB101": "guarded attribute accessed outside its declared lock",
    "GB102": "Condition.wait() outside a predicate while-loop",
    "GB103": "Condition wait/notify without holding the owning lock",
    "GB104": "guarded-by annotation names an unknown lock attribute",
    "GB105": "thread-owned state touched outside its declared thread",
    "GB106": "thread-only method called directly from another thread's method",
    "CB401": "user callback invoked while holding a contract lock",
    "DT201": "float64 cast/materialization in an integer-resident region",
    "DT202": "float-dtype array allocation in an integer-resident region",
    "DT203": "fake-quant round-trip in an integer-resident region",
    "DT204": "quant-point sanction count exceeds the committed budget (ratchet)",
    "OV301": "provable integer-accumulator overflow for a registered config",
}

_IGNORE_RE = re.compile(r"repro-analysis:\s*ignore\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule.

    ``symbol`` anchors the finding to a stable program point (usually the
    qualified name of the enclosing class/function, or the contraction name
    for the overflow prover); ``line_text`` is the stripped source line.  The
    two together with ``path`` and ``code`` form the baseline fingerprint, so
    a committed baseline keeps matching when unrelated edits shift lines.
    """

    code: str
    message: str
    path: str
    line: int
    symbol: str = ""
    line_text: str = ""
    suppressed: bool = False

    @property
    def fingerprint(self) -> str:
        return "::".join((self.path, self.code, self.symbol, self.line_text))

    def format(self) -> str:
        location = f"{self.path}:{self.line}" if self.line else self.path
        return f"{location}: {self.code} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "suppressed": self.suppressed,
            "fingerprint": self.fingerprint,
        }


@dataclass
class SourceModule:
    """A parsed python source file plus its comment annotations."""

    path: Path
    display_path: str
    text: str
    tree: ast.AST
    lines: List[str]
    comments: Dict[int, str]

    @classmethod
    def parse(cls, path: Path, root: Optional[Path] = None) -> "SourceModule":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        comments: Dict[int, str] = {}
        try:
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                if tok.type == tokenize.COMMENT:
                    comments[tok.start[0]] = tok.string
        except tokenize.TokenError:  # pragma: no cover - ast.parse catches first
            pass
        display = str(path)
        if root is not None:
            try:
                display = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                display = str(path)
        return cls(
            path=path,
            display_path=display,
            text=text,
            tree=tree,
            lines=text.splitlines(),
            comments=comments,
        )

    # ------------------------------------------------------------------
    # Annotation helpers
    # ------------------------------------------------------------------
    def comment(self, line: int) -> str:
        """The comment text on ``line`` (1-based), or an empty string."""
        return self.comments.get(line, "")

    def _standalone_comment(self, line: int) -> bool:
        """Whether ``line`` holds only a comment (no code before it)."""
        return self.line_text(line).startswith("#")

    def marker(self, pattern: re.Pattern, line: int) -> Optional[re.Match]:
        """Match ``pattern`` against the comment on ``line`` or just above.

        Annotations may trail the statement they describe or sit on a
        *standalone* comment line directly above it (a trailing comment on
        the previous statement annotates that statement, not this one).
        """
        match = pattern.search(self.comments.get(line, ""))
        if match is not None:
            return match
        if self._standalone_comment(line - 1):
            return pattern.search(self.comments.get(line - 1, ""))
        return None

    def has_marker_in_range(self, pattern: re.Pattern, start: int, end: int) -> bool:
        """Whether any line of ``[start, end]`` (or a standalone comment line
        directly above) matches."""
        for line in range(start, end + 1):
            if pattern.search(self.comments.get(line, "")):
                return True
        return self._standalone_comment(start - 1) and bool(
            pattern.search(self.comments.get(start - 1, ""))
        )

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def suppressed_codes(self, line: int) -> frozenset:
        """Codes inline-suppressed at ``line`` via ``repro-analysis: ignore``."""
        codes: set = set()
        candidates = [line]
        if self._standalone_comment(line - 1):
            candidates.append(line - 1)
        for candidate in candidates:
            match = _IGNORE_RE.search(self.comments.get(candidate, ""))
            if match is not None:
                codes.update(c.strip() for c in match.group(1).split(","))
        return frozenset(c for c in codes if c)

    def finding(
        self, code: str, message: str, node: ast.AST, symbol: str = ""
    ) -> Finding:
        """Build a finding anchored at ``node``, applying inline suppression."""
        line = getattr(node, "lineno", 0)
        return Finding(
            code=code,
            message=message,
            path=self.display_path,
            line=line,
            symbol=symbol,
            line_text=self.line_text(line),
            suppressed=code in self.suppressed_codes(line),
        )


@dataclass
class Baseline:
    """The committed set of accepted findings, matched by fingerprint.

    ``sanction_budget`` is the committed count of ``# quant-point:`` sanction
    lines inside ``# integer-resident`` regions -- the DT204 ratchet.  A run
    whose live count exceeds it fails; regenerating the baseline records the
    (lower) current count.  ``None`` (absent from the file) disables the
    ratchet, so older baselines keep loading.
    """

    fingerprints: frozenset = frozenset()
    path: Optional[Path] = None
    sanction_budget: Optional[int] = None

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text(encoding="utf-8"))
        entries = data.get("findings", [])
        prints = frozenset(
            "::".join(
                (
                    entry["path"],
                    entry["code"],
                    entry.get("symbol", ""),
                    entry.get("line_text", ""),
                )
            )
            for entry in entries
        )
        budget = data.get("sanction_budget")
        return cls(
            fingerprints=prints,
            path=path,
            sanction_budget=None if budget is None else int(budget),
        )

    @staticmethod
    def write(
        path: Path,
        findings: Sequence[Finding],
        sanction_budget: Optional[int] = None,
    ) -> None:
        entries = [
            {
                "path": f.path,
                "code": f.code,
                "symbol": f.symbol,
                "line_text": f.line_text,
            }
            for f in sorted(findings, key=lambda f: (f.path, f.code, f.line))
        ]
        payload: Dict[str, object] = {"version": 1, "findings": entries}
        if sanction_budget is not None:
            payload["sanction_budget"] = int(sanction_budget)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    def contains(self, finding: Finding) -> bool:
        return finding.fingerprint in self.fingerprints


@dataclass
class AnalysisReport:
    """Everything one analyzer run produced.

    ``findings`` carries every diagnostic with its ``suppressed`` flag already
    applied from inline comments; :meth:`partition` additionally splits on the
    baseline.  ``margins`` is the overflow prover's per-contraction headroom
    table (also emitted when every contraction is safe -- the proof is the
    point, not just the failures).  ``sanction_count`` is the live number of
    ``# quant-point:`` sanction lines inside ``# integer-resident`` regions
    (``None`` when the run did not count them), compared against the
    baseline's ``sanction_budget`` by :func:`sanction_budget_finding`.
    """

    findings: List[Finding] = field(default_factory=list)
    margins: List[Dict[str, object]] = field(default_factory=list)
    sanction_count: Optional[int] = None

    def partition(
        self, baseline: Optional[Baseline] = None
    ) -> Tuple[List[Finding], List[Finding], List[Finding]]:
        """Split findings into (active, inline-suppressed, baselined)."""
        active: List[Finding] = []
        suppressed: List[Finding] = []
        baselined: List[Finding] = []
        for finding in self.findings:
            if finding.suppressed:
                suppressed.append(finding)
            elif baseline is not None and baseline.contains(finding):
                baselined.append(finding)
            else:
                active.append(finding)
        return active, suppressed, baselined


def sanction_budget_finding(
    count: Optional[int], budget: Optional[int]
) -> Optional[Finding]:
    """The DT204 ratchet: fail when the live sanction count grew past budget.

    The integer-resident decode path may only get *shorter*: every
    ``# quant-point:`` sanction is a float materialization still waiting to
    be folded onto resident codes, so the committed budget is a one-way
    ratchet.  Returns ``None`` when the count is within budget or either
    side is unknown (no counting ran, or the baseline predates the ratchet).
    """
    if count is None or budget is None or count <= budget:
        return None
    return Finding(
        code="DT204",
        message=(
            f"quant-point sanction count {count} exceeds the committed budget "
            f"{budget}; the integer-resident path may only ratchet shorter -- "
            "fold the new float materialization onto resident codes instead "
            "of sanctioning it"
        ),
        path="repro.analysis.dtypeflow",
        line=0,
        symbol="sanction-budget",
        line_text=f"sanctions={count} budget={budget}",
    )


def repo_root() -> Path:
    """The repository root (three levels above this package)."""
    return Path(__file__).resolve().parents[3]


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def analyze_paths(
    paths: Sequence[Path], root: Optional[Path] = None
) -> List[Finding]:
    """Run every AST rule family over the python files under ``paths``."""
    # Imported here so `core` stays import-cycle free for the rule modules.
    from repro.analysis.dtypeflow import check_dtype_flow
    from repro.analysis.locks import check_lock_discipline

    findings: List[Finding] = []
    for file_path in iter_python_files([Path(p) for p in paths]):
        module = SourceModule.parse(file_path, root=root)
        findings.extend(check_lock_discipline(module))
        findings.extend(check_dtype_flow(module))
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings


def analyze_repo(
    paths: Optional[Sequence[Path]] = None,
    root: Optional[Path] = None,
    include_overflow: bool = True,
) -> AnalysisReport:
    """Analyze the repository: AST rules plus the static overflow prover."""
    from repro.analysis.dtypeflow import count_quant_points
    from repro.analysis.overflow import prove_default_registry

    if root is None:
        root = repo_root()
    if paths is None:
        paths = [root / "src" / "repro"]
    report = AnalysisReport(findings=analyze_paths(paths, root=root))
    report.sanction_count = sum(
        count_quant_points(SourceModule.parse(file_path, root=root))
        for file_path in iter_python_files([Path(p) for p in paths])
    )
    if include_overflow:
        overflow_findings, margins = prove_default_registry()
        report.findings.extend(overflow_findings)
        report.margins = margins
    return report
