"""Two-arm right-censored trial data: CSV ingestion, validation, risk table."""

import csv
import io
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass

CSV_HEADER = ("time", "arm", "event")


class DataFormatError(ValueError):
    """Input CSV does not satisfy the documented layout."""


@dataclass(frozen=True)
class Subject:
    """One trial participant: follow-up time (months), arm 0/1, event 0/1."""

    time: float
    arm: int
    event: int

    def __post_init__(self):
        if not (isinstance(self.time, (int, float)) and math.isfinite(self.time)):
            raise ValueError(f"time must be a finite number, got {self.time!r}")
        if self.time <= 0:
            raise ValueError(f"time must be positive, got {self.time!r}")
        if self.arm not in (0, 1):
            raise ValueError(f"arm must be 0 or 1, got {self.arm!r}")
        if self.event not in (0, 1):
            raise ValueError(f"event must be 0 or 1, got {self.event!r}")


@dataclass(frozen=True)
class TrialDataset:
    """Ordered collection of subjects. Immutable; order is meaningful."""

    subjects: tuple[Subject, ...]

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(self.subjects))

    @property
    def n(self) -> int:
        return len(self.subjects)

    @property
    def n_arm1(self) -> int:
        return sum(s.arm for s in self.subjects)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(s.time for s in self.subjects)

    @property
    def arms(self) -> tuple[int, ...]:
        return tuple(s.arm for s in self.subjects)

    @property
    def events(self) -> tuple[int, ...]:
        return tuple(s.event for s in self.subjects)

    @property
    def n_events(self) -> int:
        return sum(s.event for s in self.subjects)

    @property
    def follow_up(self) -> float:
        """Largest observed time (event or censoring)."""
        if not self.subjects:
            raise ValueError("empty dataset has no follow-up")
        return max(s.time for s in self.subjects)

    def without(self, k: int) -> "TrialDataset":
        """Copy with subject ``k`` removed (0-based index)."""
        if not 0 <= k < self.n:
            raise IndexError(f"subject index {k} out of range")
        return TrialDataset(self.subjects[:k] + self.subjects[k + 1 :])

    def require_two_arms(self):
        n1 = self.n_arm1
        if not 1 <= n1 <= self.n - 1:
            raise ValueError("two-sample operation needs subjects on both arms")


@dataclass(frozen=True)
class RiskTable:
    """Counts at each distinct event time, as parallel columns in ascending time.

    ``at_risk`` counts subjects with time >= the column's time, so a subject
    censored exactly there is still in the risk set; ``events`` counts the
    events there.  Both count the two arms together; ``at_risk1`` and
    ``events1`` count arm 1 alone.  ``source`` keeps the generating dataset
    so per-subject quantities (scores, pseudo-values) can be broadcast back
    in dataset order.
    """

    source: TrialDataset
    times: tuple[float, ...]
    at_risk: tuple[int, ...]
    events: tuple[int, ...]
    at_risk1: tuple[int, ...]
    events1: tuple[int, ...]

    def interval_index(self, time: float) -> int:
        """Number of distinct event times <= ``time`` (0 = before the first)."""
        return bisect_right(self.times, time)


def parse_dataset(text: str) -> TrialDataset:
    """Parse CSV content with header ``time,arm,event`` into a dataset.

    Raises DataFormatError naming the offending 1-based line on any
    malformed row; arm and event labels other than 0/1 are rejected,
    never remapped.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        return _read_subjects(reader)
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise DataFormatError(f"line {reader.line_num}: {exc}") from None


def _read_subjects(reader) -> TrialDataset:
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("empty input: expected header 'time,arm,event'") from None
    if [h.strip() for h in header] != list(CSV_HEADER):
        raise DataFormatError(
            f"line 1: header must be 'time,arm,event', got {','.join(header)!r}"
        )
    subjects = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue  # tolerate a trailing blank line
        if len(row) != 3:
            raise DataFormatError(f"line {lineno}: expected 3 fields, got {len(row)}")
        raw_time, raw_arm, raw_event = (field.strip() for field in row)
        try:
            time = float(raw_time)
        except ValueError:
            raise DataFormatError(f"line {lineno}: non-numeric time {raw_time!r}") from None
        if not math.isfinite(time):
            raise DataFormatError(f"line {lineno}: non-finite time {raw_time!r}")
        if time <= 0:
            raise DataFormatError(f"line {lineno}: time must be positive, got {raw_time}")
        if raw_arm not in ("0", "1"):
            raise DataFormatError(f"line {lineno}: arm must be 0 or 1, got {raw_arm!r}")
        if raw_event not in ("0", "1"):
            raise DataFormatError(f"line {lineno}: event must be 0 or 1, got {raw_event!r}")
        subjects.append(Subject(time, int(raw_arm), int(raw_event)))
    if not subjects:
        raise DataFormatError("no data rows after the header")
    return TrialDataset(tuple(subjects))


def build_risk_table(ds: TrialDataset) -> RiskTable:
    """Tabulate at-risk and event counts at each distinct event time."""
    events = Counter(s.time for s in ds.subjects if s.event == 1)
    if not events:
        raise ValueError("no event times: dataset contains only censored subjects")
    events1 = Counter(s.time for s in ds.subjects if s.event == 1 and s.arm == 1)
    ordered = sorted(s.time for s in ds.subjects)
    ordered1 = sorted(s.time for s in ds.subjects if s.arm == 1)
    times = tuple(sorted(events))
    return RiskTable(
        ds,
        times,
        tuple(len(ordered) - bisect_left(ordered, t) for t in times),
        tuple(map(events.__getitem__, times)),
        tuple(len(ordered1) - bisect_left(ordered1, t) for t in times),
        tuple(map(events1.__getitem__, times)),
    )


def split_by_arm(ds: TrialDataset) -> tuple[TrialDataset, TrialDataset]:
    """Control-arm and experimental-arm subsets, each preserving order."""
    arm0 = tuple(s for s in ds.subjects if s.arm == 0)
    arm1 = tuple(s for s in ds.subjects if s.arm == 1)
    return TrialDataset(arm0), TrialDataset(arm1)
