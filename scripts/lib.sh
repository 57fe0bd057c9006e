# lib.sh — the smoke scripts' process launcher. Source it after setting
# DIR (the work directory) and TAG (the name error lines start with).
#
#   start NAME BIN ARGS...   runs BIN ARGS... -portfile $DIR/NAME.port in
#                            the background, logging to $DIR/NAME.log, and
#                            waits up to 10 s for the port file; ADDR is
#                            then the bound address
#   stop NAME...             sends each SIGTERM and requires a zero exit
#                            and a "drained" line in its log
#
# One EXIT trap kills whatever is still running when the script ends.
PIDS=
trap 'kill $PIDS 2>/dev/null || true' EXIT

start() {
    name=$1
    shift
    rm -f "$DIR/$name.port"
    "$@" -portfile "$DIR/$name.port" > "$DIR/$name.log" 2>&1 &
    eval "pid_$name=$!"
    PIDS="$PIDS $!"
    i=0
    while [ ! -s "$DIR/$name.port" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "$TAG: $name never wrote its port file" >&2
            cat "$DIR/$name.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR="$(cat "$DIR/$name.port")"
}

stop() {
    for name in "$@"; do
        eval "pid=\$pid_$name"
        kill -TERM "$pid"
        if ! wait "$pid" || ! grep -q drained "$DIR/$name.log"; then
            echo "$TAG: $name did not drain to a zero exit after SIGTERM" >&2
            cat "$DIR/$name.log" >&2
            exit 1
        fi
    done
}
