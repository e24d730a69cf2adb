#!/bin/sh
# Daemon smoke: start the rtclive compliance daemon against synthetic
# appsim traffic, scrape /compliance/trend, inject a compliance
# regression (replay Discord traffic under the same label as compliant
# Zoom traffic) and assert the configured exec-sink alert fires exactly
# once; verify the firing state survives a SIGHUP reload and shows up
# on /compliance/alerts, /healthz, and /metrics?format=prom (which must
# also carry the core.close stage timing and the verdict tallies); then
# SIGHUP-reload with a changed label, replay more traffic under the
# new config, and assert a clean SIGTERM drain. Everything runs on
# ephemeral ports parsed from the daemon's own startup log, so the
# smoke is safe to run concurrently with anything else on the machine.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

fail() {
    echo "daemon-smoke: $1" >&2
    echo "--- daemon log ---" >&2
    cat "$dir/daemon.log" >&2 || true
    echo "--- exec-sink output ---" >&2
    cat "$dir/alerts.out" >&2 || true
    exit 1
}

# fire_lines counts exec-sink deliveries of a given kind (no
# deliveries yet means the sink never ran and the file is absent).
fire_lines() {
    [ -f "$dir/alerts.out" ] || { echo 0; return; }
    grep -c "^$1\.floor$" "$dir/alerts.out" || true
}

$GO build -o "$dir" ./cmd/rtclive ./cmd/rtcgen

"$dir/rtcgen" -out "$dir/traces" -app Zoom -network wifi-p2p -duration 5s -runs 1 >/dev/null
pcap=$(ls "$dir"/traces/*.pcap | head -1)
"$dir/rtcgen" -out "$dir/regress" -app Discord -network wifi-p2p -duration 5s -runs 1 >/dev/null
badpcap=$(ls "$dir"/regress/*.pcap | head -1)

# The alert floor (0.2) sits between Discord's type-compliance rate
# (0) and any Zoom epoch, so swapping the replayed app under the same
# label forces a regression. QoE estimation rides along so the trend
# points carry the header-free media features.
write_config() {
    cat > "$dir/daemon.yaml" <<EOF
source:
  kind: live
  listen: "127.0.0.1:0"
  idle: 200ms
  label: $1
analysis:
  qoe: true
daemon:
  epoch: 1s
  trend_file: $dir/trend.jsonl
sinks:
  metrics_addr: "127.0.0.1:0"
alerts:
  rules:
    floor:
      type: compliance_drop
      min: 0.2
  sinks:
    exec:
      command: "echo \$ALERT_KIND.\$ALERT_RULE >> $dir/alerts.out"
EOF
}
write_config smoke-a

"$dir/rtclive" daemon -config "$dir/daemon.yaml" > "$dir/daemon.log" 2>&1 &
pid=$!

# The daemon logs its ephemeral collector and HTTP addresses at startup.
i=0
until grep -q "daemon: metrics and /compliance/trend" "$dir/daemon.log" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || fail "daemon did not report its addresses"
    sleep 0.1
done
addr=$(sed -n 's/^daemon: collecting on \([^ ]*\).*/\1/p' "$dir/daemon.log" | head -1)
http=$(sed -n 's|^daemon: metrics and /compliance/trend on http://\([^ ]*\).*|\1|p' "$dir/daemon.log" | head -1)
[ -n "$addr" ] && [ -n "$http" ] || fail "could not parse daemon addresses"

# Replay the compliant capture and wait for a trend point under the
# first config's label. This also arms the alert rule with a healthy
# baseline; nothing may fire yet.
"$dir/rtclive" replay -pcap "$pcap" -to "$addr" -speed 0 >/dev/null
i=0
until fetch "http://$http/compliance/trend" 2>/dev/null | grep -q '"app": "smoke-a"'; do
    i=$((i + 1))
    [ "$i" -lt 150 ] || fail "no trend point under label smoke-a"
    sleep 0.1
done
[ "$(fire_lines fire)" = "0" ] || fail "alert fired on compliant traffic"

# The trend points must carry the QoE summary, and the since= filter
# must accept both duration and RFC 3339 forms.
fetch "http://$http/compliance/trend?since=10m" | grep -q '"qoe"' \
    || fail "trend points carry no qoe summary"
fetch "http://$http/compliance/trend?since=2026-01-01T00:00:00Z" >/dev/null \
    || fail "RFC 3339 since= rejected"

# Inject the regression: Discord traffic fails every type check, so
# the same label now breaches the floor and the exec sink must fire
# exactly once.
"$dir/rtclive" replay -pcap "$badpcap" -to "$addr" -speed 0 >/dev/null
i=0
until [ "$(fire_lines fire)" = "1" ]; do
    i=$((i + 1))
    [ "$i" -lt 150 ] || fail "exec-sink alert did not fire on the regression"
    sleep 0.1
done

# A persisting regression is suppressed, not re-fired: replay more
# regressed traffic, wait for its trend points, and assert the sink
# still saw exactly one firing.
points=$(grep -c . "$dir/trend.jsonl")
"$dir/rtclive" replay -pcap "$badpcap" -to "$addr" -speed 0 >/dev/null
i=0
until [ "$(grep -c . "$dir/trend.jsonl")" -gt "$points" ]; do
    i=$((i + 1))
    [ "$i" -lt 150 ] || fail "no trend point for the second regression replay"
    sleep 0.1
done
[ "$(fire_lines fire)" = "1" ] || fail "persistent regression re-fired the alert"

# The firing episode is visible on the HTTP surfaces.
fetch "http://$http/compliance/alerts" | grep -q '"firing": 1' \
    || fail "/compliance/alerts does not report the firing episode"
fetch "http://$http/healthz" | grep -q '"status": "ok"' \
    || fail "/healthz is not ok"
fetch "http://$http/metrics?format=prom" > "$dir/metrics.prom" \
    || fail "could not scrape /metrics?format=prom"
grep -q '^rtcc_alerts_fired_total 1$' "$dir/metrics.prom" \
    || fail "prom exposition missing rtcc_alerts_fired_total 1"
# Every closed epoch is timed as one core.close stage, and the verdict
# tallies recorded from the finished analysis are exposed.
closes=$(sed -n 's/^rtcc_stage_seconds_count{app="smoke-a",stage="core.close"} \([0-9]*\)$/\1/p' "$dir/metrics.prom")
[ "${closes:-0}" -ge 1 ] \
    || fail "prom exposition has no core.close stage_seconds count for smoke-a"
grep -q '^rtcc_compliance_pass_total ' "$dir/metrics.prom" \
    || fail "prom exposition missing rtcc_compliance_pass_total"

# SIGHUP with an unchanged label: the reload must swap the rules in
# place and keep the firing/debounce state — more regressed traffic
# afterwards must not re-fire.
write_config smoke-a
kill -HUP "$pid"
i=0
until grep -q "daemon: reloaded config from" "$dir/daemon.log"; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || fail "daemon did not confirm the SIGHUP reload"
    sleep 0.1
done
fetch "http://$http/compliance/alerts" | grep -q '"firing": 1' \
    || fail "firing state lost across the SIGHUP reload"
points=$(grep -c . "$dir/trend.jsonl")
"$dir/rtclive" replay -pcap "$badpcap" -to "$addr" -speed 0 >/dev/null
i=0
until [ "$(grep -c . "$dir/trend.jsonl")" -gt "$points" ]; do
    i=$((i + 1))
    [ "$i" -lt 150 ] || fail "no trend point after the reload"
    sleep 0.1
done
[ "$(fire_lines fire)" = "1" ] || fail "alert re-fired after the SIGHUP reload"
fetch "http://$http/healthz" | grep -q '"reloads": 1' \
    || fail "/healthz does not count the reload"

# Second SIGHUP reload with a changed label; the daemon must confirm
# the reload and keep collecting on the same socket.
write_config smoke-b
kill -HUP "$pid"
i=0
until [ "$(grep -c "daemon: reloaded config from" "$dir/daemon.log")" -ge 2 ]; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || fail "daemon did not confirm the second SIGHUP reload"
    sleep 0.1
done

"$dir/rtclive" replay -pcap "$pcap" -to "$addr" -speed 0 >/dev/null
i=0
until fetch "http://$http/compliance/trend?app=smoke-b" 2>/dev/null | grep -q '"app": "smoke-b"'; do
    i=$((i + 1))
    [ "$i" -lt 150 ] || fail "no trend point under the reloaded label smoke-b"
    sleep 0.1
done

# SIGTERM must drain cleanly: exit 0 and a conservation line.
kill -TERM "$pid"
wait "$pid" || fail "daemon exited non-zero on SIGTERM"
pid=""
grep -q "daemon: drained," "$dir/daemon.log" || fail "daemon did not log the drain accounting"
[ -s "$dir/trend.jsonl" ] || fail "trend file is empty"

echo "daemon-smoke: startup, trend+qoe scrape, regression alert (exactly once, reload-stable), SIGHUP reloads, and SIGTERM drain OK"
