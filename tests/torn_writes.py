"""A fault for the write tests: a write that raises halfway.

tear(monkeypatch, name) makes each records.write_whole of a file called name
write its first part and then raise OSError("disk full"), as a full disk or
a Ctrl-C would stop it. It is installed under every name a caller looks the
writer up by.
"""

from pathlib import Path

from rlready import cli, records, sampler


def tear(monkeypatch, name: str) -> None:
    write_whole = records.write_whole

    def torn(path, parts):
        if Path(path).name != name:
            return write_whole(path, parts)

        def first_part_then_disk_full():
            rest = iter(parts)
            yield next(rest)
            raise OSError("disk full")

        return write_whole(path, first_part_then_disk_full())

    for module in (records, cli, sampler):
        monkeypatch.setattr(module, "write_whole", torn)
