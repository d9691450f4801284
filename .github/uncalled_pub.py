#!/usr/bin/env python3
"""List the public functions that nothing calls but their own unit tests.

For every `pub fn` in non-test code under `crates/*/src`, the script looks
for the function's name as a whole word, anywhere in the text (comments and
strings included), of

  * every other `.rs` file under `crates/`, `src/`, `tests/`, `examples/`
    and `benchmark/`, and
  * its own file, outside the definition itself and outside `#[cfg(test)]`
    items (the unit-test module).

A function whose name is found nowhere has no caller: only its own file's
tests read it. The scan is by name, so a function that shares its name with
anything else in the workspace (`new`, `len`, a field) is never listed.

Each listed function must appear in ALLOW below with the reason it is kept;
the script exits 1 when one does not, and also when an ALLOW entry no longer
matches a listed function, so the allow-list cannot outlive its reasons.

    python3 .github/uncalled_pub.py        # from any working directory
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ["crates", "src", "tests", "examples", "benchmark"]

# "file:Owner::name" -> why the function stays without a caller.
ALLOW = {}

PUB_FN = re.compile(r"\bpub\s+(?:(?:const|unsafe|async)\s+)*fn\s+([A-Za-z_][A-Za-z0-9_]*)")
IMPL = re.compile(r"\bimpl\b(?:\s*<[^{;]*?>)?\s+(?:[^{;]*?\bfor\s+)?([A-Za-z_][A-Za-z0-9_:]*)[^{;]*\{")
CFG_TEST = re.compile(r"#\[cfg\(test\)\]")
IDENT_CHAR = re.compile(r"[A-Za-z0-9_]")
RAW_STR = re.compile(r'b?r(#*)"')


def strip(src):
    """Blank out comments and string/char literals, keeping offsets.

    Every removed character becomes a space (newlines stay), so positions
    and line numbers in the result match the source.
    """
    out = list(src)
    i, n = 0, len(src)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif src.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif c in "rb" and (i == 0 or not IDENT_CHAR.match(src[i - 1])) and RAW_STR.match(src, i):
            m = RAW_STR.match(src, i)
            end = src.find('"' + m.group(1), m.end())
            end = n if end < 0 else end + 1 + len(m.group(1))
            blank(i, end)
            i = end
        elif c == '"':  # also the body of a byte string b"..."
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            blank(i, j + 1)
            i = j + 1
        elif c == "'":
            if i + 1 < n and src[i + 1] == "\\":
                j = src.find("'", i + 3)
                blank(i, j + 1)
                i = j + 1
            elif i + 2 < n and src[i + 2] == "'":
                blank(i, i + 3)
                i += 3
            else:
                i += 1  # a lifetime
        else:
            i += 1
    return "".join(out)


def block_end(code, start):
    """Index just past the item starting at `start`: its `;` or its `{..}`."""
    depth = 0
    for k in range(start, len(code)):
        ch = code[k]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return k + 1
        elif ch == ";" and depth == 0:
            return k + 1
    return len(code)


def test_spans(code):
    """Offset ranges of the items under a `#[cfg(test)]` attribute."""
    return [(m.start(), block_end(code, m.end())) for m in CFG_TEST.finditer(code)]


def owner(code, pos, impls):
    """Type of the innermost `impl` block around `pos`, if any."""
    best = None
    for start, end, name in impls:
        if start <= pos < end and (best is None or start > best[0]):
            best = (start, name)
    return best[1] if best else None


def main():
    texts = {}
    for d in CALLER_DIRS:
        for path in (ROOT / d).rglob("*.rs"):
            rel = path.relative_to(ROOT).as_posix()
            if "/target/" not in "/" + rel:
                texts[rel] = path.read_text(encoding="utf-8")

    words = {rel: set(re.findall(r"\w+", text)) for rel, text in texts.items()}

    listed = {}
    for rel, text in sorted(texts.items()):
        parts = rel.split("/")
        if parts[0] != "crates" or len(parts) < 4 or parts[2] != "src":
            continue
        # Definitions, impl blocks and test items are found in the code with
        # comments and literals blanked; names are looked up in the text.
        code = strip(text)
        spans = test_spans(code)
        impls = [
            (m.start(), block_end(code, m.start()), m.group(1).split("::")[-1])
            for m in IMPL.finditer(code)
        ]
        for m in PUB_FN.finditer(code):
            name, at = m.group(1), m.start()
            if any(a <= at < b for a, b in spans):
                continue
            if any(name in w for other, w in words.items() if other != rel):
                continue
            uses = [u.start() for u in re.finditer(r"\b%s\b" % re.escape(name), text)]
            if any(u != m.start(1) and not any(a <= u < b for a, b in spans) for u in uses):
                continue
            typ = owner(code, at, impls)
            qual = "%s::%s" % (typ or Path(rel).stem, name)
            line = code.count("\n", 0, at) + 1
            listed["%s:%s" % (rel, qual)] = line

    failed = False
    for key, line in sorted(listed.items()):
        rel, qual = key.split(":", 1)
        reason = ALLOW.get(key)
        if reason:
            print("kept     %s:%d: %s (%s)" % (rel, line, qual, reason))
        else:
            print("uncalled %s:%d: %s" % (rel, line, qual))
            failed = True
    for key in sorted(set(ALLOW) - set(listed)):
        print("stale allow-list entry: %s" % key)
        failed = True
    if failed:
        print(
            "uncalled_pub: delete each uncalled function with the tests that "
            "test only it, or add it to ALLOW in %s with the reason it stays"
            % Path(__file__).relative_to(ROOT).as_posix()
        )
        return 1
    print("uncalled_pub: %d kept, none uncalled" % len(listed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
