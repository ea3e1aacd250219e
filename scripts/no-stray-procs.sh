#!/usr/bin/env bash
# The leak check: prints every process a build, test, benchmark or server
# of this repository can leave behind (resin-* binaries, *.test binaries,
# go-build temp executables, bench/run.sh) and exits 1 if there is one.
# scripts/bench-pairs.sh and scripts/server-integration.sh end with it, CI
# runs it as its last step, and it is the last command of a work session.
# (`pgrep -f` with this pattern would match the shell that runs it.)
stray=$(ps -eo pid,etime,args | grep -E 'resin-|\.test|go-build|run\.sh' | grep -v grep)
if [ -n "$stray" ]; then
	echo "no-stray-procs: still running:" >&2
	echo "$stray"
	exit 1
fi
