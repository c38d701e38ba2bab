package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// Structured logging for the whole repository, built on log/slog. The
// process-wide logger defaults to discarding everything, so libraries log
// freely (cluster retries, chaos degradations, executor completions) and
// pay nothing until a CLI opts in with -log-level. Events carry structured
// attrs (rank, op, attempt, seconds) so a chaos run's retry storm is
// greppable JSON rather than prose.

// discardLogger drops every record without formatting it.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))

var processLogger atomic.Pointer[slog.Logger]

func init() { processLogger.Store(discardLogger) }

// Logger returns the process-wide logger. It is never nil; before SetLogger
// it discards everything.
func Logger() *slog.Logger { return processLogger.Load() }

// SetLogger installs the process-wide logger. A nil logger restores the
// discarding default.
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = discardLogger
	}
	processLogger.Store(l)
}

// NewLogger builds a logger writing to w at the given level, as JSON lines
// (machine-greppable) or the slog text format. It does not install itself;
// pass the result to SetLogger or carry it via twoface.Options.Logger.
func NewLogger(w io.Writer, level slog.Level, asJSON bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if asJSON {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// ParseLevel maps a -log-level flag value onto a slog level. Empty means
// "logging off" and returns ok=false.
func ParseLevel(s string) (slog.Level, bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "":
		return 0, false, nil
	case "debug":
		return slog.LevelDebug, true, nil
	case "info":
		return slog.LevelInfo, true, nil
	case "warn", "warning":
		return slog.LevelWarn, true, nil
	case "error":
		return slog.LevelError, true, nil
	}
	return 0, false, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
}

// runIDCounter disambiguates run IDs minted within the same second.
var runIDCounter atomic.Int64

// NewRunID mints a short unique identifier for one run, stamped on every
// log line via Logger().With("run", id) so interleaved runs stay separable.
func NewRunID() string {
	return fmt.Sprintf("%s-%04d", time.Now().UTC().Format("20060102T150405"), runIDCounter.Add(1)%10000)
}

// SetupLogging is the CLI entry point: parse the -log-level value, build a
// stderr logger (JSON when asJSON), stamp it with the tool name and a fresh
// run ID, and install it process-wide. Returns the installed logger and run
// ID; with an empty level it leaves the discarding default and returns
// Logger() unchanged.
func SetupLogging(tool, level string, asJSON bool) (*slog.Logger, string, error) {
	lvl, on, err := ParseLevel(level)
	if err != nil {
		return nil, "", err
	}
	if !on {
		return Logger(), "", nil
	}
	id := NewRunID()
	l := NewLogger(os.Stderr, lvl, asJSON).With("tool", tool, "run", id)
	SetLogger(l)
	return l, id, nil
}
