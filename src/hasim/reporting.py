"""CSV and text renditions of simulation reports.

All machine-readable output is CSV with pinned headers:

  report.csv         kind,count,mean_s,stddev_s,min_s,max_s
  histogram_<k>.csv  bin_start_s,count
  episodes.csv       vm_id,kind,failure_at,detected_at,recovered_at,recovery_s,recovered_on

Numbers render via str(), which round-trips floats exactly, so identical
reports serialize to identical bytes.
"""

from __future__ import annotations

import csv
import io

from .engine import INJECTION_KINDS, Episode, KindStats, SimReport

REPORT_HEADER = "kind,count,mean_s,stddev_s,min_s,max_s"
HISTOGRAM_HEADER = "bin_start_s,count"
EPISODES_HEADER = "vm_id,kind,failure_at,detected_at,recovered_at,recovery_s,recovered_on"


def format_report_csv(stats: list[KindStats]) -> str:
    lines = [REPORT_HEADER]
    for s in stats:
        lines.append(f"{s.kind},{s.count},{s.mean_s},{s.stddev_s},{s.min_s},{s.max_s}")
    return "\n".join(lines) + "\n"


def format_histogram_csv(stats: KindStats) -> str:
    lines = [HISTOGRAM_HEADER]
    for bin_start, count in stats.histogram:
        lines.append(f"{bin_start},{count}")
    return "\n".join(lines) + "\n"


def _row(ep: Episode) -> list[str]:
    """An episode's fields in episodes.csv, an absent one empty."""
    return [ep.vm_id, ep.kind, str(ep.failure_at)] + [
        "" if value is None else str(value)
        for value in (ep.detected_at, ep.recovered_at, ep.recovery_s, ep.recovered_on)]


def format_episodes_csv(episodes: list[Episode]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(EPISODES_HEADER.split(","))
    writer.writerows(_row(ep) for ep in episodes)
    return out.getvalue()


def parse_episodes_csv(text: str) -> list[Episode]:
    """Read episodes back from episodes.csv (action lists are not stored).

    A ValueError names the first row that does not parse, whose kind is no
    injection kind, whose detection or recovery comes before its failure, or
    that is not the row `format_episodes_csv` writes for its times, as when
    its recovery_s is not recovered_at - failure_at.
    """
    reader = csv.reader(io.StringIO(text))
    episodes = []
    number = -1  # of the row read last; the header is row 0
    try:
        header = next(reader, None)
        number = 0
        if header != EPISODES_HEADER.split(","):
            raise ValueError("not an episodes.csv file")
        for number, row in enumerate(reader, 1):
            try:
                episodes.append(_episode(row))
            except ValueError as exc:
                raise ValueError(f"row {number}: {exc}") from None
    except csv.Error as exc:  # a field longer than csv's limit
        raise ValueError(f"row {number + 1}: {exc}") from None
    return episodes


def _episode(row: list[str]) -> Episode:
    vm_id, kind, failure_at, detected_at, recovered_at, _recovery_s, on = row
    ep = Episode(vm_id, kind, int(failure_at), int(detected_at) if detected_at else None,
                 recovered_at=int(recovered_at) if recovered_at else None,
                 recovered_on=on or None)
    if kind not in INJECTION_KINDS:
        raise ValueError(f"kind {kind!r} is no injection kind")
    if min(ep.detection_s or 0, ep.recovery_s or 0) < 0:
        raise ValueError("detected_at or recovered_at before failure_at")
    if _row(ep) != row:
        raise ValueError(f"expected {','.join(_row(ep))}")
    return ep


def format_actions(episode: Episode) -> str:
    return "; ".join(f"t={t} {a}" for t, a in episode.actions)


def summary_text(report: SimReport, stats: list[KindStats]) -> str:
    """Human-readable account of a run: per-kind aggregates, then episodes."""
    lines = [f"horizon: {report.horizon_s} s",
             f"episodes: {len(report.episodes)} "
             f"({len(report.recovered())} recovered, "
             f"{len(report.unrecovered())} not recovered within the horizon)"]
    for s in stats:
        lines.append(
            f"  {s.kind}: n={s.count} mean={s.mean_s:.1f}s stddev={s.stddev_s:.1f}s "
            f"min={s.min_s}s max={s.max_s}s")
    for ep in report.episodes:
        if ep.recovered_at is None:
            outcome = "NOT RECOVERED"
        else:
            outcome = f"recovered on {ep.recovered_on} at t={ep.recovered_at} " \
                      f"({ep.recovery_s}s after failure)"
        detected = "never detected" if ep.detected_at is None \
            else f"detected at t={ep.detected_at}"
        lines.append(f"  {ep.vm_id} [{ep.kind}] failed at t={ep.failure_at}, "
                     f"{detected}, {outcome}")
        if ep.actions:
            lines.append(f"    actions: {format_actions(ep)}")
    return "\n".join(lines) + "\n"
