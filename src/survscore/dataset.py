"""Two-arm right-censored trial data: CSV ingestion, validation, risk table."""

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, groupby, repeat

CSV_HEADER = ("time", "arm", "event")
_LABELS = {"0": 0, "1": 1}  # the only arm and event labels, as the ints a Subject holds


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


@dataclass(frozen=True, init=False)
class TrialDataset:
    """Ordered collection of subjects, held as three parallel columns.

    Immutable; order is meaningful.  ``times``, ``arms`` and ``events``
    hold, in dataset order, the same objects the subjects do, and
    ``subjects`` gives the same rows as ``Subject`` records.  What is
    derived from the rows (``subjects``, the time order, the risk-table
    columns, the arm split) is computed on first use and kept in the
    instance ``__dict__``; none of it points back at the dataset, so
    dropping the last reference frees it at once, without the cycle
    collector.
    """

    times: tuple[float, ...]
    arms: tuple[int, ...]
    events: tuple[int, ...]

    def __init__(self, subjects):
        subjects = tuple(subjects)
        self._fill(
            tuple(s.time for s in subjects),
            tuple(s.arm for s in subjects),
            tuple(s.event for s in subjects),
        )
        object.__setattr__(self, "subjects", subjects)  # the given records are the cache

    @classmethod
    def _from_columns(cls, times, arms, events) -> "TrialDataset":
        """A dataset over columns whose rows are already valid subjects (not checked)."""
        ds = cls.__new__(cls)
        ds._fill(times, arms, events)
        return ds

    def _fill(self, times, arms, events):
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "events", events)

    @cached_property
    def subjects(self) -> tuple[Subject, ...]:
        """The rows as ``Subject`` records, built and validated on first use."""
        return tuple(map(Subject, self.times, self.arms, self.events))

    @cached_property
    def time_order(self) -> tuple[int, ...]:
        """The subject indices in ascending time, tied subjects in dataset order."""
        return tuple(sorted(range(len(self.times)), key=self.times.__getitem__))

    @cached_property
    def _risk_columns(self) -> tuple[tuple, ...]:
        """The columns of ``build_risk_table(self)`` after ``source``, in field order.

        One walk over the subjects sorted by time, a group of equal times at
        a time: a group with an event adds an event-time column, counted
        before the group leaves the risk set.  The table itself is not kept:
        its ``source`` is this dataset.
        """
        times, arms, events, order = self.times, self.arms, self.events, self.time_order
        columns = event_times, at_risk, deaths, at_risk1, deaths1 = [], [], [], [], []
        through = []  # event times at or before each subject, in ``order``
        left, left1 = len(times), sum(arms)  # at risk at the group's time
        for t, group in groupby(order, times.__getitem__):
            size = d = n1 = d1 = 0
            for k in group:
                size += 1
                e = events[k]
                d += e
                if arms[k]:
                    n1 += 1
                    d1 += e
            if d:
                event_times.append(t)
                at_risk.append(left)
                deaths.append(d)
                at_risk1.append(left1)
                deaths1.append(d1)
            through.extend(repeat(len(event_times), size))
            left -= size
            left1 -= n1
        if not event_times:
            raise ValueError("no event times: dataset contains only censored subjects")
        intervals = [0] * len(times)
        for k, j in zip(order, through):
            intervals[k] = j
        return (*map(tuple, columns), tuple(intervals))

    @cached_property
    def _km(self):
        """The curve ``curves.km_fit(self)`` returns: columns only, nothing pointing back."""
        from .curves import _product_limit  # curves imports this module

        return _product_limit(self)

    @cached_property
    def _arm_split(self) -> tuple["TrialDataset", "TrialDataset"]:
        """The pair ``split_by_arm(self)`` returns."""
        on_arm0 = [not arm for arm in self.arms]
        return _select(self, on_arm0), _select(self, self.arms)

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def n_arm1(self) -> int:
        return sum(self.arms)

    @property
    def n_events(self) -> int:
        return sum(self.events)

    @property
    def follow_up(self) -> float:
        """Largest observed time (event or censoring)."""
        if not self.times:
            raise ValueError("empty dataset has no follow-up")
        return max(self.times)

    def without(self, k: int) -> "TrialDataset":
        """Copy with subject ``k`` removed (0-based index)."""
        if not 0 <= k < self.n:
            raise IndexError(f"subject index {k} out of range")
        return TrialDataset._from_columns(
            *(column[:k] + column[k + 1 :] for column in (self.times, self.arms, self.events))
        )


@dataclass(frozen=True)
class RiskTable:
    """Counts at each distinct event time, as parallel columns in ascending time.

    ``at_risk`` counts subjects with time >= the column's time, so a subject
    censored exactly there is still in the risk set; ``events`` counts the
    events there.  Both count the two arms together; ``at_risk1`` and
    ``events1`` count arm 1 alone.  ``source`` keeps the generating dataset
    so per-subject quantities (scores, pseudo-values) can be broadcast back
    in dataset order.  ``intervals`` holds, for each subject of ``source``
    in source order, the number of event times at or before its time (0 =
    before the first), so an event's own event time is column
    ``intervals[k] - 1``.
    """

    source: TrialDataset
    times: tuple[float, ...]
    at_risk: tuple[int, ...]
    events: tuple[int, ...]
    at_risk1: tuple[int, ...]
    events1: tuple[int, ...]
    intervals: tuple[int, ...]


@lru_cache(maxsize=1)
def parse_dataset(text: str) -> TrialDataset:
    """Parse CSV content with header ``time,arm,event`` into a dataset.

    Raises DataFormatError naming the offending 1-based line on any
    malformed row; arm and event labels other than 0/1 are rejected,
    never remapped.  The last text parsed is remembered: the same text
    again returns the same (immutable) dataset, with whatever it has
    computed since.  An error is not remembered.
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
    times, arms, events = [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue  # tolerate a trailing blank line
        if len(row) != 3:
            raise DataFormatError(f"line {lineno}: expected 3 fields, got {len(row)}")
        raw_time, raw_arm, raw_event = row
        raw_time, raw_arm, raw_event = raw_time.strip(), raw_arm.strip(), raw_event.strip()
        try:
            time = float(raw_time)
        except ValueError:
            raise DataFormatError(f"line {lineno}: non-numeric time {raw_time!r}") from None
        if not math.isfinite(time):
            raise DataFormatError(f"line {lineno}: non-finite time {raw_time!r}")
        if time <= 0:
            raise DataFormatError(f"line {lineno}: time must be positive, got {raw_time}")
        arm = _LABELS.get(raw_arm)
        if arm is None:
            raise DataFormatError(f"line {lineno}: arm must be 0 or 1, got {raw_arm!r}")
        event = _LABELS.get(raw_event)
        if event is None:
            raise DataFormatError(f"line {lineno}: event must be 0 or 1, got {raw_event!r}")
        times.append(time)
        arms.append(arm)
        events.append(event)
    if not times:
        raise DataFormatError("no data rows after the header")
    return TrialDataset._from_columns(tuple(times), tuple(arms), tuple(events))


def build_risk_table(ds: TrialDataset) -> RiskTable:
    """Tabulate at-risk and event counts at each distinct event time.

    The columns are computed once per dataset; each call wraps them in a
    new table.
    """
    return RiskTable(ds, *ds._risk_columns)


def check_two_arms(arms, values=None) -> int:
    """The arm-1 count of ``arms``; refuses unequal lengths, a label not 0 or 1, an empty arm."""
    if values is not None and len(values) != len(arms):
        raise ValueError("values and arms must have equal length")
    try:
        known = set(arms) <= {0, 1}
    except TypeError:  # an unhashable label is not 0 or 1 either
        known = False
    if not known:
        raise ValueError(f"arm must be 0 or 1, got {next(a for a in arms if a not in (0, 1))!r}")
    return check_arm_sizes(len(arms), arms.count(1))


def check_arm_sizes(n: int, n1: int) -> int:
    """``n1`` if ``n`` subjects with ``n1`` on arm 1 leave no arm empty; refuses a count
    outside [0, n], then the empty arm."""
    if not 0 <= n1 <= n:
        raise ValueError(f"arm-1 count {n1} out of range for {n} subjects")
    if not 0 < n1 < n:
        raise ValueError(f"arm {0 if n1 == n else 1} has no subjects")
    return n1


def split_by_arm(ds: TrialDataset) -> tuple[TrialDataset, TrialDataset]:
    """Control-arm and experimental-arm subsets, each preserving order.

    Computed once per dataset: the same pair on every call.
    """
    return ds._arm_split


def _select(ds: TrialDataset, selectors) -> TrialDataset:
    """The subjects whose selector is true, in order."""
    return TrialDataset._from_columns(
        *(tuple(compress(column, selectors)) for column in (ds.times, ds.arms, ds.events))
    )
