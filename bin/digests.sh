#!/bin/sh
# Usage: digests.sh STOBCTL EXPECTED.  Runs each line "MD5 QUEUE ARGS" of
# EXPECTED as `STOB_EVENT_QUEUE=QUEUE stobctl ARGS`, prints the line with
# the md5 of its stdout, and fails if any md5 moved.  When an output moves
# on purpose, re-record EXPECTED from the printed lines in a commit of its
# own.
case $1 in */*) exe=$1 ;; *) exe=./$1 ;; esac
status=0
while read -r want queue args; do
  got=$(STOB_EVENT_QUEUE=$queue "$exe" $args </dev/null 2>/dev/null | md5sum)
  echo "${got%% *} $queue $args"
  [ "${got%% *}" = "$want" ] || { echo "moved: $queue $args" >&2; status=1; }
done <"$2"
exit $status
