"""CSV rendition round trips and formats."""

import pytest

from hasim.engine import Episode, SimReport, summarize
from hasim.reporting import (
    EPISODES_HEADER,
    REPORT_HEADER,
    format_episodes_csv,
    format_histogram_csv,
    format_report_csv,
    parse_episodes_csv,
    summary_text,
)


def sample_episodes():
    return [
        Episode("gridce", "power_glitch", 291, detected_at=420,
                recovered_at=683, recovered_on="alfa04"),
        Episode("web01", "non_destructive_crash", 100, detected_at=180,
                recovered_at=260, recovered_on="alfa02"),
        Episode("db01", "destructive_crash", 50, detected_at=120),
    ]


def test_report_csv_header_and_rows():
    report = SimReport(episodes=sample_episodes(), horizon_s=900)
    text = format_report_csv(summarize(report))
    lines = text.strip().split("\n")
    assert lines[0] == REPORT_HEADER
    assert lines[1].startswith("non_destructive_crash,1,160.0,0.0,160,160")
    assert lines[2].startswith("power_glitch,1,392.0,0.0,392,392")


def test_histogram_csv_shape():
    report = SimReport(episodes=sample_episodes(), horizon_s=900)
    stats = summarize(report, bin_width_s=50)
    text = format_histogram_csv(stats[0])
    lines = text.strip().split("\n")
    assert lines[0] == "bin_start_s,count"
    assert lines[1] == "150,1"


def test_episodes_csv_round_trip():
    episodes = sample_episodes()
    text = format_episodes_csv(episodes)
    assert text.startswith(EPISODES_HEADER)
    parsed = parse_episodes_csv(text)
    assert [e.vm_id for e in parsed] == [e.vm_id for e in episodes]
    for got, want in zip(parsed, episodes):
        assert got.kind == want.kind
        assert got.failure_at == want.failure_at
        assert got.detected_at == want.detected_at
        assert got.recovered_at == want.recovered_at
        assert got.recovered_on == want.recovered_on


def test_parse_rejects_foreign_csv():
    with pytest.raises(ValueError):
        parse_episodes_csv("a,b,c\n1,2,3\n")


def test_summary_mentions_recovery_host():
    report = SimReport(episodes=sample_episodes(), horizon_s=900)
    text = summary_text(report, summarize(report))
    assert "gridce" in text
    assert "recovered on alfa04" in text
    assert "NOT RECOVERED" in text  # db01 never recovered


@pytest.mark.parametrize("row,problem", [
    ('w,"a,b",10,80,190,180,h', "row 2: kind 'a,b' is no injection kind"),
    ("w,x/y,10,80,190,180,h", "row 2: kind 'x/y' is no injection kind"),
    ("w,power_glitch,10,80,5,-5,h", "row 2: detected_at or recovered_at before failure_at"),
    ("w,power_glitch,10,5,,,", "row 2: detected_at or recovered_at before failure_at"),
    ("w,power_glitch,10,80,190,100,h", "row 2: expected w,power_glitch,10,80,190,180,h"),
    ("w,power_glitch,10,80,,180,", "row 2: expected w,power_glitch,10,80,,,"),
    ("w,power_glitch,1O,80,190,180,h", "row 2: invalid literal for int()"),
    ("w,power_glitch,10", "row 2: not enough values to unpack"),
], ids=["comma-kind", "slash-kind", "recovered-early", "detected-early", "wrong-recovery_s",
        "recovery_s-unrecovered", "not-an-int", "short-row"])
def test_parse_rejects_rows_no_run_writes(row, problem):
    good = "v,non_destructive_crash,0,70,180,180,h"
    with pytest.raises(ValueError) as exc:
        parse_episodes_csv(f"{EPISODES_HEADER}\n{good}\n{row}\n")
    assert str(exc.value).startswith(problem)
