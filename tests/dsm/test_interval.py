"""Unit tests for intervals, write notices, the log and the collector."""

import pytest

from repro.dsm import (
    Interval,
    IntervalLog,
    NOTICE_WIRE_BYTES,
    WriteCollector,
    WriteNotice,
)


def notice(page=1, proc=0, seq=1, nbytes=64):
    return WriteNotice(page=page, proc=proc, seq=seq, modified_bytes=nbytes)


def interval(proc, seq, pages=(1,)):
    return Interval(
        proc=proc, seq=seq,
        notices=tuple(notice(page=p, proc=proc, seq=seq) for p in pages),
    )


def test_notice_validation():
    with pytest.raises(ValueError):
        WriteNotice(page=-1, proc=0, seq=1, modified_bytes=0)
    with pytest.raises(ValueError):
        WriteNotice(page=0, proc=0, seq=0, modified_bytes=0)
    with pytest.raises(ValueError):
        WriteNotice(page=0, proc=0, seq=1, modified_bytes=-1)


def test_interval_notice_ownership():
    with pytest.raises(ValueError):
        Interval(proc=0, seq=2, notices=(notice(proc=1, seq=2),))
    with pytest.raises(ValueError):
        Interval(proc=0, seq=2, notices=(notice(proc=0, seq=1),))


def test_interval_wire_bytes():
    iv = interval(0, 1, pages=(1, 2, 3))
    assert iv.wire_bytes == 12 + 3 * NOTICE_WIRE_BYTES


def test_log_records_in_order():
    log = IntervalLog(2)
    assert log.record(interval(0, 1))
    assert log.record(interval(0, 2))
    assert not log.record(interval(0, 2))  # duplicate
    assert not log.record(interval(0, 1))  # old
    assert log.known_seq(0) == 2
    assert log.known_seq(1) == 0


def test_log_rejects_gaps():
    log = IntervalLog(2)
    log.record(interval(0, 1))
    with pytest.raises(ValueError):
        log.record(interval(0, 3))
    with pytest.raises(ValueError):
        IntervalLog(2).record(interval(0, 2))  # first must be seq 1


def test_missing_for():
    log = IntervalLog(3)
    for s in (1, 2, 3):
        log.record(interval(0, s))
    log.record(interval(2, 1))
    missing = log.missing_for([1, 0, 0])
    assert [(iv.proc, iv.seq) for iv in missing] == [(0, 2), (0, 3), (2, 1)]
    assert log.missing_for([3, 0, 1]) == []


def test_lanes_exist_only_for_procs_heard_from():
    log = IntervalLog(1024)
    log.record(interval(700, 1))
    log.record(interval(3, 1))
    assert sorted(log._log) == [3, 700]
    assert [iv.proc for iv in log.missing_for([0] * 1024)] == [3, 700]
    assert log.known_seq(5) == 0 and log.intervals_of(5) == []


def test_out_of_range_procs_rejected():
    log = IntervalLog(2)
    with pytest.raises(IndexError):
        log.record(interval(2, 1))
    with pytest.raises(IndexError):
        log.known_seq(-1)
    with pytest.raises(IndexError):
        log.intervals_of(2)


def test_intervals_of():
    log = IntervalLog(2)
    log.record(interval(1, 1))
    assert [iv.seq for iv in log.intervals_of(1)] == [1]
    assert log.intervals_of(0) == []


def test_collector_records_and_drains():
    c = WriteCollector(page_size=4096)
    c.record_write(3, 0, 100)
    c.record_write(3, 50, 100)  # overlaps
    c.record_write(7, 4000, 96)
    assert c.dirty_pages == [3, 7]
    assert c.modified_bytes(3) == 150
    assert c.modified_bytes(7) == 96
    assert c.modified_bytes(99) == 0
    assert bool(c)
    out = c.drain()
    assert out == {3: 150, 7: 96}
    assert not c
    assert c.drain() == {}


def test_collector_clamps_to_page():
    c = WriteCollector(page_size=4096)
    c.record_write(0, 4000, 500)  # spills past the page end
    assert c.modified_bytes(0) == 96


def test_collector_offset_validation():
    c = WriteCollector(page_size=4096)
    with pytest.raises(ValueError):
        c.record_write(0, 4096, 1)
    with pytest.raises(ValueError):
        c.record_write(0, -1, 1)
