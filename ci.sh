#!/usr/bin/env sh
# Full local CI gate (`cargo xtask ci`), in order:
#   docs -> clippy -D warnings -> rustdoc -D warnings -> release build
#   -> tests (bitwise reproducibility included) -> perfbench self-test
#   -> traced seed-0 year_fleet perfbench run (the full-size pins)
#   -> tdiff self-check
# Exits non-zero on the first failing gate. docs/HANDBOOK.md walks through
# what each gate proves and what to do when one goes red.
set -eu
cd "$(dirname "$0")"
exec cargo xtask ci
