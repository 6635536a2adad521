#!/usr/bin/env python3
"""Check DESIGN.md's library inventory against lib/.

Every row of the "Library inventory" table names a library directory
(`lib/<dir>`) and its modules.  The modules a row names must be exactly
the modules of that directory: its top-level .ml files plus the .ml
targets of its dune copy rules (a build-time selected backend).  Every
lib/<dir> must have a row.  Submodules written with a dot
(`Workload.Stream`) are ignored.

Usage: scripts/check_inventory.py [REPO_ROOT]   (exit 1 on any mismatch)
"""

import os
import re
import sys

root = sys.argv[1] if len(sys.argv) > 1 else "."


def modules_of(d):
    names = {f[:-3] for f in os.listdir(d) if f.endswith(".ml")}
    dune = os.path.join(d, "dune")
    if os.path.exists(dune):
        names |= set(re.findall(r"\(targets\s+(\w+)\.ml\)", open(dune).read()))
    return {n.capitalize() for n in names}


design = open(os.path.join(root, "DESIGN.md")).read()
table = design.split("## Library inventory", 1)[1].split("\n\n", 2)[1]
rows = {}
for line in table.splitlines():
    m = re.match(r"\|[^|]*\(`(lib/[\w/]+)`\)\s*\|([^|]*)\|", line)
    if m:
        rows[m.group(1)] = set(re.findall(r"`([A-Z]\w*)`", m.group(2)))

errors = []
libs = sorted(
    "lib/" + d for d in os.listdir(os.path.join(root, "lib"))
    if os.path.isdir(os.path.join(root, "lib", d))
)
for lib in libs:
    if lib not in rows:
        errors.append(f"{lib}: no inventory row")
        continue
    actual = modules_of(os.path.join(root, lib))
    for name in sorted(actual - rows[lib]):
        errors.append(f"{lib}: module {name} missing from its inventory row")
    for name in sorted(rows[lib] - actual):
        errors.append(f"{lib}: inventory row names {name}, which is not a module there")
for lib in sorted(set(rows) - set(libs)):
    errors.append(f"{lib}: inventory row for a directory that does not exist")

for e in errors:
    print(e)
if errors:
    sys.exit(1)
print(f"inventory ok: {len(rows)} libraries")
