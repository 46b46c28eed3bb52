"""Files, CSV text and worker processes: the package's one boundary with
the operating system.

Every file the package reads goes through ``read_file`` and every file
it writes through ``write_file``; CSV text is made by ``write_csv`` and
parsed by ``read_csv``; ``map_jobs`` runs independent jobs in worker
processes.  A failure at this boundary raises ValidationError, so the
command-line interface exits 2.
"""

from __future__ import annotations

import csv
import io
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

from .errors import ValidationError


def write_file(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, line ends untranslated; a
    file that cannot be written raises ValidationError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def check_writable(*paths) -> None:
    """Raise the ValidationError ``write_file`` would raise for a path,
    None skipped, that is a directory or whose directory is missing or
    unwritable, and refuse two paths that resolve to one file, whose
    second write would replace the first.  It only stats, so a command
    checks its outputs first."""
    seen = {}
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise ValidationError(f"cannot write {path}: is a directory")
        if not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK):
            raise ValidationError(f"cannot write {path}: no writable directory")
        real = os.path.realpath(path)
        if real in seen:
            raise ValidationError(f"cannot write {path}: it is the same file as {seen[real]}")
        seen[real] = path


def read_file(path, parse):
    """``parse`` of the text of a UTF-8 file, without a leading byte-order
    mark.  A file that cannot be read or decoded raises ValidationError,
    and so does a parse error, prefixed with the path."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_csv(header, rows, path=None) -> str:
    """CSV text of a header and rows with ``\\n`` line ends, also written
    to ``path`` when one is given."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if path is not None:
        write_file(path, text)
    return text


def read_csv(text: str, columns: dict, optional: dict | None = None,
             others=None) -> list[dict]:
    """Rows of a CSV as dicts of typed cells in header order, blank lines
    skipped.  ``columns`` and ``optional`` map header names to cell types
    and ``others`` types the rest (None ignores them); rows lack an
    optional column the header lacks.  A column with a blank header cell,
    such as a trailing comma writes, is ignored while its cells are blank.
    A missing or repeated name, a row not as wide as the header, a value
    under a blank header cell or a bad cell raises ValidationError."""
    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader, [])]
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValidationError(f"CSV lacks column(s) {', '.join(missing)}")
    repeated = [c for c, k in Counter(header).items() if k > 1 and c]
    if repeated:
        raise ValidationError(f"CSV repeats column(s) {', '.join(repeated)}")
    types = {**dict.fromkeys(header, others), **(optional or {}), **columns}
    unnamed = [i for i, c in enumerate(header) if not c]
    rows = []
    for line in reader:
        if not line:
            continue
        try:
            rows.append({c: types[c](v) for c, v in zip(header, line, strict=True)
                         if c and types[c] is not None})
        except ValueError as exc:
            raise ValidationError(f"bad table row {line!r}") from exc
        held = [i for i in unnamed if line[i].strip()]
        if held:
            raise ValidationError(f"CSV column {held[0] + 1} has no name but holds "
                                  f"{line[held[0]]!r} on line {reader.line_num}")
    return rows


def map_jobs(fn, jobs, threads: int) -> list:
    """``[fn(job) for job in jobs]``; above one thread the jobs run in
    that many worker processes, so ``fn`` and the jobs must pickle."""
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))
