#!/bin/sh
# Dependency lint over dune stanzas.
#
# Usage: sh deps_lint.sh DIR...
#
# Fails when a stob_* entry in the libraries field of a dune file under the
# DIRs is named (as its module, Stob_x) by none of the .ml/.mli files
# beside that dune file, and names the stanza and the library.  It assumes
# one stanza with libraries per directory, as everywhere in this
# repository.
set -eu

status=0
for dune in $(find "$@" -name dune -type f | sort); do
  dir=$(dirname "$dune")
  # Drop comments, then join the lines: a field may span several.
  flat=$(sed 's/;.*$//' "$dune" | tr '\n' ' ')
  libs=$(printf '%s\n' "$flat" | sed -n 's/.*(libraries \([^)]*\)).*/\1/p')
  [ -n "$libs" ] || continue
  stanza=$(printf '%s\n' "$flat" | sed -n 's/.*(names\{0,1\} \([^)]*\)).*/\1/p')
  for lib in $libs; do
    case $lib in stob_*) ;; *) continue ;; esac
    module=S${lib#s}
    if ! cat "$dir"/*.ml "$dir"/*.mli 2>/dev/null | grep -qw "$module"; then
      echo "unused dependency: $dune ($stanza) lists $lib, but none of its sources names $module" >&2
      status=1
    fi
  done
done
exit $status
