#!/usr/bin/env bash
# The leak check: prints every process a build, test, benchmark or server
# of this repository can leave behind and exits 1 if there is one. It
# names a process by what it runs — resin-* binaries, *.test binaries,
# go-build temp executables, the go test/run/build/tool commands, the
# bench/run.sh, bench-pairs.sh and server-integration.sh scripts, gopls,
# pprof -http — and on Linux also by where it runs: any process whose
# working directory lies inside the checkout, or inside $TMPDIR when that
# is set. Not reported: the check's own ancestry (the shell that called
# it), its own children, and a process at the other end of a pipe from
# one of them, such as the `tee` of `bash scripts/no-stray-procs.sh |
# tee log` or a log pipe reading the program that started the shell —
# and so on down a pipeline: a process reading the stdout of an exempt
# reader is exempt too, as the second `cat` of `... | cat | cat` is. A
# leaked process inherits its starter's stdin and stdout, it is never
# wired to them the other way round, so a process that writes into one
# of these pipes is still reported. scripts/bench-pairs.sh and
# scripts/server-integration.sh end with it, CI runs it as its last step,
# and it is the last command of a work session.
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd -P)
tmp=""
if [ -n "${TMPDIR:-}" ] && [ -d "$TMPDIR" ]; then
	tmp=$(cd "$TMPDIR" && pwd -P)
fi
procs=$(ps -eo pid=,ppid=,etime=,args=)
# "/proc/<pid>/cwd <dir>", "/proc/<pid>/fd/0 <target>" and ".../fd/1"
# lines; empty where there is no /proc.
links=""
if [ -d /proc/self ]; then
	links=$(find /proc/[0-9]*/cwd /proc/[0-9]*/fd/0 /proc/[0-9]*/fd/1 -maxdepth 0 -printf '%p %l\n' 2>/dev/null)
fi
stray=$(awk -v self=$$ -v root="$root" -v tmp="$tmp" '
	function under(c, d) { return d != "" && (c == d || index(c, d "/") == 1) }
	$1 ~ /^\/proc\// {
		split($1, f, "/")
		t = substr($0, length($1) + 2)
		if (f[4] == "cwd") cwd[f[3]] = t
		else if (f[5] == "0") in0[f[3]] = t
		else out1[f[3]] = t
		next
	}
	{ ppid[$1] = $2; pids[++n] = $1; line[$1] = $0 }
	END {
		for (p = self; p in ppid && !(p in mine); p = ppid[p]) {
			mine[p] = 1
			if (out1[p] ~ /^pipe:/) ours_out[out1[p]] = 1
			if (in0[p] ~ /^pipe:/) ours_in[in0[p]] = 1
		}
		# Follow each pipe chain downstream: a reader of one of our
		# pipes hands its own stdout pipe on to the next stage.
		for (grew = 1; grew; ) {
			grew = 0
			for (i = 1; i <= n; i++) {
				p = pids[i]
				if ((p in in0) && (in0[p] in ours_out) && out1[p] ~ /^pipe:/ && !(out1[p] in ours_out)) {
					ours_out[out1[p]] = 1
					grew = 1
				}
			}
		}
		for (i = 1; i <= n; i++) {
			p = pids[i]
			if (p in mine) continue
			if ((p in in0) && (in0[p] in ours_out)) continue
			if ((p in out1) && (out1[p] in ours_in)) continue
			own = 0
			for (q = ppid[p]; q in ppid && !own; q = ppid[q]) own = (q == self)
			if (own) continue
			args = line[p]
			sub(/^ *[0-9]+ +[0-9]+ +/, "", args)
			if (((p in cwd) && (under(cwd[p], root) || under(cwd[p], tmp))) || args ~ /resin-|\.test|go-build|run\.sh|bench-pairs\.sh|server-integration\.sh|gopls|pprof -http|(^|[ \/])go (test|run|build|tool)( |$)/)
				printf "%7s %s\n", p, args
		}
	}' <<<"$links
$procs")
if [ -n "$stray" ]; then
	echo "no-stray-procs: still running:" >&2
	echo "$stray"
	exit 1
fi
