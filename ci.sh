#!/usr/bin/env sh
# Full local CI gate (`cargo xtask ci`), in order:
#   docs -> clippy -D warnings -> analyze -> flow -> graph
#   -> rustdoc -D warnings -> release build -> tests -> determinism
#   -> chaos smoke -> campaign smoke -> profile smoke -> tdiff self-check
#   -> bench smoke
# Exits non-zero on the first failing gate. docs/HANDBOOK.md walks through
# what each gate proves and what to do when one goes red.
set -eu
cd "$(dirname "$0")"
exec cargo xtask ci
