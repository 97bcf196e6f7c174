#!/bin/sh
# Polymorphic-compare lint over compiled library archives.
#
# Usage: sh polycompare_lint.sh ARCHIVE.a...
#
# Fails, naming each module, when an archive's object code calls the
# runtime's polymorphic compare or a stdlib function built on it.  It reads
# what the compiler emitted, so a comparison the type checker specialised
# (an [int] [<], a [float] [compare]) passes, and one left polymorphic
# fails wherever it hides.
set -eu

symbols=$(nm -A "$@")
pattern=' U (caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)|camlStdlib\.(min|max|compare)_[0-9]+|camlStdlib__List\.(mem|assoc|assoc_opt|mem_assoc)_[0-9]+)$'
hits=$(printf '%s\n' "$symbols" | grep -E "$pattern" || true)
if [ -n "$hits" ]; then
  echo "polymorphic compare in a linted library (use Int.min/Int.max, List.memq or a typed compare):" >&2
  printf '%s\n' "$hits" | sed -E 's/^.*:([^:]+)\.o: +U (.*)$/  \1 calls \2/' >&2
  exit 1
fi
