"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles with its own code
paths (direct products, direct sums, full enumeration), deliberately not
sharing structure with the package internals it checks.
"""

import csv
import io
import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from xml.sax.saxutils import escape

from survscore import svgplot
from survscore.rng import SplitMix64


def km_steps(subjects):
    """Product-limit curve as [(event_time, survival_after)], direct product.

    ``subjects`` is an iterable of (time, event) pairs.
    """
    subjects = list(subjects)
    steps = []
    surv = 1.0
    for t in sorted({t for t, e in subjects if e}):
        at_risk = sum(1 for u, _ in subjects if u >= t)
        deaths = sum(1 for u, e in subjects if e and u == t)
        surv *= (at_risk - deaths) / at_risk
        steps.append((t, surv))
    return steps


def event_times_through(subjects):
    """For each (time, event) pair, in order, the number of distinct event times <= its time."""
    subjects = list(subjects)
    event_times = {t for t, e in subjects if e}
    return [sum(1 for u in event_times if u <= t) for t, _ in subjects]


def step_at(steps, t):
    """Right-continuous evaluation of a [(time, value)] step curve."""
    value = 1.0
    for u, v in steps:
        if u <= t:
            value = v
        else:
            break
    return value


def step_left(steps, t):
    """Left limit S(t-) of a [(time, value)] step curve."""
    value = 1.0
    for u, v in steps:
        if u < t:
            value = v
        else:
            break
    return value


def weights_from_left_limits(rt, pooled, spec):
    """Event-time weights from S(t-) of ``pooled``, looked up by step_left() at each time."""
    steps = list(zip(pooled.jump_times, pooled.values))
    weights = []
    for t in rt.times:
        s = step_left(steps, t)
        if spec.kind == "logrank":
            weights.append(1.0)
        elif spec.kind == "fleming_harrington":
            weights.append(s**spec.rho * (1.0 - s) ** spec.gamma)
        else:
            weights.append(1.0 / max(s, spec.s_star))
    return tuple(weights)


def step_integral(steps, tau, start=0.0):
    """Integral over [start, tau] of a [(time, value)] step curve that is 1 before its
    first time, summed in exact rational arithmetic and rounded once at the end."""
    total, prev, value = Fraction(0), Fraction(start), Fraction(1)
    for u, v in steps:
        if u >= tau:
            break
        if u > start:
            total += value * (Fraction(u) - prev)
            prev = Fraction(u)
        value = Fraction(v)
    return float(total + value * (Fraction(tau) - prev))


def conditional_tail_integral(times, factors, j, h):
    """Integral over [times[j - 1] (0 for j = 0), h) of the curve that is 1 there and is
    multiplied by factors[k] at each times[k], k >= j, in exact rational arithmetic."""
    levels = itertools.accumulate(map(Fraction, factors[j:]), operator.mul)
    return step_integral(list(zip(times[j:], levels)), h, times[j - 1] if j else 0.0)


def integrals_from(curve, tau):
    """Integral of the curve from each of its jump times up to tau; 0.0 from tau on.

    One sum backward over the pieces S * dt below tau, so nothing is subtracted:
    the reference for the RMST test's S(t_j) times tail_integrals' entry j + 1.
    """
    jumps = curve.jump_times
    below = bisect_left(jumps, tau)
    ends = jumps[1:below] + (tau,)
    pieces = [s * (end - t) for s, end, t in zip(curve.values, ends, jumps[:below])]
    return itertools.chain(reversed(list(itertools.accumulate(reversed(pieces)))),
                           itertools.repeat(0.0))


def exponential_rate(subjects):
    times = [t for t, _ in subjects]
    return sum(e for _, e in subjects) / sum(times)


def piecewise_rates(subjects, cuts):
    """Per-interval events over person-time, intervals right-closed at cuts."""
    edges = [0.0, *cuts, math.inf]
    rates = []
    for lo, hi in zip(edges, edges[1:]):
        person_time = sum(max(0.0, min(t, hi) - lo) for t, _ in subjects)
        events = sum(e for t, e in subjects if lo < t <= hi)
        rates.append(events / person_time if person_time > 0 else 0.0)
    return rates


def parametric_survival(rates, cuts, t):
    edges = [0.0, *cuts, math.inf]
    hazard = 0.0
    for rate, (lo, hi) in zip(rates, zip(edges, edges[1:])):
        if t <= lo:
            break
        hazard += rate * (min(t, hi) - lo)
    return math.exp(-hazard)


def parametric_integral(rates, cuts, tau):
    """Integral of exp(-H) over [0, tau], segment by segment from S(lo).

    A segment of width w at rate r adds S(lo) * w * g(r * w), with
    g(x) = (1 - exp(-x)) / x.  For x <= 1, g is summed as its series
    sum_k (-x)^k / (k + 1)!, so a small rate does not cancel to 0 (as
    1 - exp(-x) does below about 1e-16); past 1 the closed form has no
    cancellation to speak of.
    """
    edges = [0.0, *cuts, math.inf]
    total = 0.0
    for rate, (lo, hi) in zip(rates, zip(edges, edges[1:])):
        if tau <= lo:
            break
        width = min(tau, hi) - lo
        s_lo = parametric_survival(rates, cuts, lo)
        x = rate * width
        if x <= 1.0:
            g = sum((-x) ** k / math.factorial(k + 1) for k in range(20))
        else:
            g = (1.0 - math.exp(-x)) / x
        total += s_lo * width * g
    return total


def functional(subjects, kind, backend, cuts=(), tau=None, kappa=None,
               tau1=None, tau2=None, log_scale=True):
    """Evaluate one survival functional on (time, event) pairs."""
    if backend == "km":
        steps = km_steps(subjects)
        survival = lambda t: step_at(steps, t)
        integral = lambda t: step_integral(steps, t)
    else:
        rates = (
            [exponential_rate(subjects)]
            if backend == "exponential"
            else piecewise_rates(subjects, cuts)
        )
        pw_cuts = [] if backend == "exponential" else list(cuts)
        survival = lambda t: parametric_survival(rates, pw_cuts, t)
        integral = lambda t: parametric_integral(rates, pw_cuts, t)
    if kind == "rmst":
        return integral(tau)
    if kind == "milestone":
        return survival(kappa)
    if kind == "wmst":
        return integral(tau2) - integral(tau1)
    ratio = (1.0 - survival(tau)) / integral(tau)
    return math.log(ratio) if log_scale else ratio


def km_difference(subjects, kind, horizon):
    """Closed-form KM test of (time, arm, event) triples, straight from its definition.

    The statistic is arm 1 minus arm 0 of RMST(horizon) (``kind`` "rmst")
    or S(horizon) ("milestone").  The variance sums c^2 d / (n (n - d))
    over each arm's event times t <= horizon, where c is the integral of
    the arm's curve over [t, horizon] (rmst) or its value at the horizon
    (milestone); a term with n = d is dropped and counted.  Returns
    (statistic, variance, (terms dropped on arm 0, on arm 1)).
    """
    estimates, variance, dropped = [], 0.0, []
    for arm in (0, 1):
        pairs = [(t, e) for t, a, e in subjects if a == arm]
        steps = km_steps(pairs)
        if kind == "rmst":
            estimates.append(step_integral(steps, horizon))
        else:
            estimates.append(step_at(steps, horizon))
        count = 0
        for t in sorted({t for t, e in pairs if e and t <= horizon}):
            at_risk = sum(1 for u, _ in pairs if u >= t)
            deaths = sum(1 for u, e in pairs if e and u == t)
            if at_risk == deaths:
                count += 1
                continue
            c = step_integral(steps, horizon, t) if kind == "rmst" else estimates[-1]
            variance += c * c * deaths / (at_risk * (at_risk - deaths))
        dropped.append(count)
    return estimates[1] - estimates[0], variance, tuple(dropped)


def jackknife_pseudo(ds, kind, backend, pooling, **params):
    """Naive leave-one-out pseudo-values, recomputed from scratch."""
    pairs = [(s.time, s.event) for s in ds.subjects]
    if pooling == "arm":
        groups = [[i for i, s in enumerate(ds.subjects) if s.arm == a] for a in (0, 1)]
        groups = [g for g in groups if g]
    else:
        groups = [list(range(ds.n))]
    out = [None] * ds.n
    for indices in groups:
        n = len(indices)
        full = functional([pairs[i] for i in indices], kind, backend, **params)
        for k in indices:
            rest = [pairs[i] for i in indices if i != k]
            out[k] = n * full - (n - 1) * functional(rest, kind, backend, **params)
    return out


def upper_unit_axis(values):
    """The "upper" [-1, 1] map by its own formula, highest value to -1 and lowest to 1, or
    None where the package refuses the map (all values equal, or a non-finite result)."""
    hi, lo = max(values), min(values)
    if hi == lo:
        return None
    span = hi - lo
    scaled = tuple(((hi - v) - (v - lo)) / span for v in values)
    return scaled if all(map(math.isfinite, scaled)) else None


def _tie_bound(values, observed, direction):
    """The package's documented tie rule: sums within 2^-41 of the value
    spread from the observed sum count as ties."""
    window = Fraction(max(values) - min(values), 2**41)
    return observed + window if direction == "lower" else observed - window


def _extreme(s, bound, direction):
    return s <= bound if direction == "lower" else s >= bound


def _common_denominator_ints(values):
    """The values times their least common denominator, as exact integers."""
    exact = [Fraction(float(v)) for v in values]
    denom = math.lcm(*(v.denominator for v in exact))
    return [int(v * denom) for v in exact]


def enumerate_perm_p(values, arms, direction):
    """Full enumeration of label assignments with exact rational sums.

    The values are put over their least common denominator once, so every
    assignment's sum is an exact integer (the rational sum times that
    positive constant).
    """
    ints = _common_denominator_ints(values)
    n1 = sum(arms)
    observed = sum(v for v, a in zip(ints, arms) if a == 1)
    bound = _tie_bound(ints, observed, direction)
    count = 0
    total = 0
    for combo in itertools.combinations(range(len(ints)), n1):
        total += 1
        if _extreme(sum(ints[i] for i in combo), bound, direction):
            count += 1
    return Fraction(count, total)


def dp_perm_p(values, arms, direction):
    """Exact permutation p-value for integer-valued inputs, by dynamic
    programming over (subset size, subset sum).

    counts[k][s] is the number of size-k subsets with sum s, built one
    value at a time; the cost grows with n * n1 * (number of distinct
    sums), not with the number of assignments.
    """
    ints = [int(v) for v in values]
    if ints != list(values):
        raise ValueError("dp_perm_p needs integer-valued inputs")
    n1 = sum(arms)
    counts = [{} for _ in range(n1 + 1)]
    counts[0][0] = 1
    for v in ints:
        for k in range(n1, 0, -1):  # downward, so each value is used once
            row = counts[k]
            for s, c in counts[k - 1].items():
                row[s + v] = row.get(s + v, 0) + c
    observed = sum(v for v, a in zip(ints, arms) if a == 1)
    bound = _tie_bound(ints, observed, direction)
    hits = sum(c for s, c in counts[n1].items() if _extreme(s, bound, direction))
    return Fraction(hits, math.comb(len(ints), n1))


def bisect_count_at_most(ints, n1, bound):
    """#(size-n1 subsets of the integers with sum <= bound), by the sort-and-bisect meet
    in the middle: each half's subset sums listed by size, the right half's sorted, and
    one bisect per left sum counting its partners."""
    half = len(ints) // 2

    def sums_by_size(values):
        by_size = [[0]] + [[] for _ in range(n1)]
        for i, v in enumerate(values):
            for k in range(min(i + 1, n1), 0, -1):  # downward, so each value is used once
                by_size[k] += [s + v for s in by_size[k - 1]]
        return by_size

    right = [sorted(sums) for sums in sums_by_size(ints[half:])]
    return sum(bisect_right(right[n1 - k], bound - s)
               for k, sums in enumerate(sums_by_size(ints[:half])) for s in sums)


def sequential_choose(rng, n, k):
    """Partial Fisher-Yates drawing one rejection-sampled index per step."""
    idx = list(range(n))
    for i in range(k):
        j = i + rng.next_below(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


def sequential_mc_perm_p(values, arms, replicates, seed, direction):
    """Add-one Monte-Carlo permutation p, replicate r drawing its arm-1
    subset with sequential_choose from child stream r of the seed.

    Only the per-word stream (substream, next_below) is shared with the
    package; the packed draw and the integer image are not.
    """
    ints = _common_denominator_ints(values)
    n1 = sum(arms)
    observed = sum(v for v, a in zip(ints, arms) if a == 1)
    bound = _tie_bound(ints, observed, direction)
    root = SplitMix64(seed)
    extreme = 0
    for r in range(replicates):
        subset = sequential_choose(root.substream(r), len(ints), n1)
        extreme += _extreme(sum(ints[i] for i in subset), bound, direction)
    return Fraction(1 + extreme, replicates + 1)


_MASK64 = (1 << 64) - 1


def _undo_xorshift(y, shift):
    """x with x ^ (x >> shift) == y: each pass fixes ``shift`` more top bits."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def unfinalize(word):
    """Inverse of the splitmix64 finalizer: undo each xor-shift and multiply
    by the inverse of each odd multiplier mod 2**64, last step first."""
    z = _undo_xorshift(word, 31)
    z = _undo_xorshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64, 27)
    return _undo_xorshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64, 30)


def tabulate_csv(columns):
    """Named columns -> CSV, every cell formatted on its own and every row written by csv."""
    cells = [
        ["" if v is None else f"{v:.6g}" if isinstance(v, float) else v for v in c]
        for c in columns.values()
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*cells))
    return buffer.getvalue()


def render_svg(panels, columns=3):
    """``svgplot.render_svg`` drawn one f-string per point, with no text shared across panels."""
    g = svgplot
    panels = list(panels)
    x_max = g.nice_ceiling(max(max(panel.times) for panel in panels))
    columns = min(columns, len(panels))
    rows = (len(panels) + columns - 1) // columns
    width, height = columns * g.PANEL_W, rows * g.PANEL_H

    def x_to_px(t):
        return g.MARGIN_L + (t / x_max) * g.PLOT_W

    def y_to_px(v):
        return g.MARGIN_T + (g.Y_LIMIT - v) / (2 * g.Y_LIMIT) * g.PLOT_H

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<style>\n{g._STYLE}</style>",
        f'<rect fill="#ffffff" x="0" y="0" width="{width}" height="{height}"/>',
    ]
    left, right = g.MARGIN_L, g.MARGIN_L + g.PLOT_W
    top, bottom = g.MARGIN_T, g.MARGIN_T + g.PLOT_H
    for i, panel in enumerate(panels):
        out.append(f'<g class="panel" transform="translate({(i % columns) * g.PANEL_W},'
                   f'{(i // columns) * g.PANEL_H})" '
                   f'data-method="{escape(panel.title, {chr(34): "&quot;"})}">')
        out.append(f'<rect class="frame" x="{left}" y="{top}" width="{g.PLOT_W}" '
                   f'height="{g.PLOT_H}"/>')
        out.append(f'<text class="title" x="{(left + right) / 2:.2f}" y="{g.MARGIN_T - 12}" '
                   f'text-anchor="middle">{escape(panel.title)}</text>')
        for k in range(5):
            t = x_max * k / 4
            px = x_to_px(t)
            out.append(f'<line class="tick" x1="{px:.2f}" y1="{bottom}" x2="{px:.2f}" '
                       f'y2="{bottom + 4}"/>')
            out.append(f'<text x="{px:.2f}" y="{bottom + 16}" text-anchor="middle">{t:.6g}</text>')
        for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
            py = y_to_px(v)
            out.append(f'<line class="tick" x1="{left - 4}" y1="{py:.2f}" x2="{left}" '
                       f'y2="{py:.2f}"/>')
            out.append(f'<text x="{left - 7}" y="{py + 3.5:.2f}" text-anchor="end">{v:g}</text>')
        out.append(f'<text x="{(left + right) / 2:.2f}" y="{bottom + 32}" '
                   'text-anchor="middle">Time (months)</text>')
        out.append(f'<text transform="translate(13,{(top + bottom) / 2:.2f}) rotate(-90)" '
                   'text-anchor="middle">Standardized score</text>')
        for arm, mean in enumerate(panel.arm_means):
            py = f"{y_to_px(mean):.2f}"
            out.append(f'<line class="mean-line arm{arm}" x1="{left}" y1="{py}" x2="{right}" '
                       f'y2="{py}" stroke-dasharray="6 4" data-mean="{mean!r}"/>')
        for time, value, arm, event in zip(panel.times, panel.values, panel.arms, panel.events):
            classes = f"point arm{int(arm)}" + (" censored" if event == 0 else "")
            out.append(f'<circle class="{classes}" cx="{x_to_px(time):.2f}" '
                       f'cy="{y_to_px(value):.2f}" r="4" data-time="{time!r}" '
                       f'data-value="{value!r}"/>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
