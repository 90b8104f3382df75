"""RunJournal: durability, torn lines, and identity pinning."""

import json

from repro.resilience.journal import (RunJournal, journal_name,
                                      journal_line)

META = {"uarch": "haswell", "seed": 0, "shards": 3,
        "corpus": "deadbeef"}


def _journal(tmp_path):
    return RunJournal(str(tmp_path / journal_name("main")))


class TestRoundTrip:
    def test_fresh_journal_has_no_completions(self, tmp_path):
        journal = _journal(tmp_path)
        assert journal.open(META) == {}
        assert not journal.resumed
        journal.close()

    def test_completions_survive_reopen(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.open(META)
            journal.record_shard("aaa-0", 0, 111)
            journal.record_shard("bbb-1", 1, 222)

        resumed = _journal(tmp_path)
        assert resumed.open(META) == {"aaa-0": 111, "bbb-1": 222}
        assert resumed.resumed
        resumed.close()

    def test_latest_record_for_a_digest_wins(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.open(META)
            journal.record_shard("aaa-0", 0, 111)
            journal.record_shard("aaa-0", 0, 999)
        resumed = _journal(tmp_path)
        assert resumed.open(META) == {"aaa-0": 999}
        resumed.close()


class TestTornLines:
    def test_torn_final_line_is_dropped(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.open(META)
            journal.record_shard("aaa-0", 0, 111)
            journal.record_shard("bbb-1", 1, 222)
        path = tmp_path / journal_name("main")
        data = path.read_text()
        path.write_text(data[:-15])  # SIGKILL mid-write

        resumed = _journal(tmp_path)
        assert resumed.open(META) == {"aaa-0": 111}
        assert resumed.torn_records == 1
        assert resumed.resumed
        resumed.close()

    def test_bit_flip_fails_the_self_check(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.open(META)
            journal.record_shard("aaa-0", 0, 111)
        path = tmp_path / journal_name("main")
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace('"checksum": 111',
                                     '"checksum": 112')
        path.write_text("\n".join(lines) + "\n")

        resumed = _journal(tmp_path)
        assert resumed.open(META) == {}
        assert resumed.torn_records == 1
        resumed.close()

    def test_garbage_journal_starts_fresh(self, tmp_path):
        path = tmp_path / journal_name("main")
        path.write_text("\x00 not json at all {{{\n")
        journal = _journal(tmp_path)
        assert journal.open(META) == {}
        assert not journal.resumed
        journal.close()


class TestIdentityPinning:
    def test_different_meta_rotates_the_journal(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.open(META)
            journal.record_shard("aaa-0", 0, 111)

        other = dict(META, corpus="cafef00d")
        fresh = _journal(tmp_path)
        assert fresh.open(other) == {}
        assert not fresh.resumed
        fresh.close()
        # The old run's completions are gone for good.
        again = _journal(tmp_path)
        assert again.open(META) == {}
        again.close()

    def test_wrong_version_rotates(self, tmp_path):
        path = tmp_path / journal_name("main")
        begin = journal_line({"kind": "begin", "version": 999,
                           "meta": META})
        shard = journal_line({"kind": "shard", "digest": "aaa-0",
                           "index": 0, "checksum": 111})
        path.write_text(begin + "\n" + shard + "\n")
        journal = _journal(tmp_path)
        assert journal.open(META) == {}
        journal.close()

    def test_resume_appends_a_resume_record(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.open(META)
            journal.record_shard("aaa-0", 0, 111)
        with _journal(tmp_path) as journal:
            journal.open(META)
        path = tmp_path / journal_name("main")
        lines = path.read_text().splitlines()
        kinds = [json.loads(line)["rec"]["kind"] for line in lines]
        assert kinds == ["begin", "shard", "resume"]
