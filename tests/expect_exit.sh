#!/bin/sh
# expect_exit.sh STATUS PATTERN CMD [ARGS...]
#
# Run CMD and pass only if it exits with exactly STATUS and its stderr
# contains PATTERN (a fixed string). Used by the command-line error
# ctests, where "fails somehow" is not enough: a usage error must exit
# 2 and name the argument it rejects.
[ $# -ge 3 ] || { echo "usage: $0 STATUS PATTERN CMD [ARGS...]" >&2; exit 2; }
want=$1 pattern=$2
shift 2
err=$(mktemp)
"$@" > /dev/null 2> "$err"
got=$?
cat "$err" >&2
if [ "$got" -ne "$want" ]; then
    echo "expect_exit: '$*' exited $got, not $want" >&2
    rm -f "$err"
    exit 1
fi
if ! grep -qF -- "$pattern" "$err"; then
    echo "expect_exit: stderr of '$*' lacks '$pattern'" >&2
    rm -f "$err"
    exit 1
fi
rm -f "$err"
