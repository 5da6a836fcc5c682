package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int8(l))
	}
}

// ParseLevel maps a flag string to a Level (defaults to info).
func ParseLevel(s string) Level {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// Event is one structured log record handed to a Sink. Keys and Vals
// are parallel; Vals are pre-rendered strings so sinks never reflect.
type Event struct {
	Time  time.Time
	Level Level
	Msg   string
	Keys  []string
	Vals  []string
}

// Sink consumes log events. Sinks must be safe for concurrent use.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// Logger is a leveled key-value logger. A nil *Logger discards
// everything, so packages log unconditionally. With derives child
// loggers carrying bound fields.
type Logger struct {
	sink Sink
	min  Level
	keys []string
	vals []string
}

// NewLogger returns a logger emitting events at or above min to sink.
func NewLogger(sink Sink, min Level) *Logger {
	if sink == nil {
		return nil
	}
	return &Logger{sink: sink, min: min}
}

// NewTextLogger logs "15:04:05.000 level msg k=v ..." lines to w.
func NewTextLogger(w io.Writer, min Level) *Logger {
	var mu sync.Mutex
	return NewLogger(SinkFunc(func(e Event) {
		var b strings.Builder
		b.WriteString(e.Time.Format("15:04:05.000"))
		b.WriteByte(' ')
		b.WriteString(e.Level.String())
		b.WriteByte(' ')
		b.WriteString(e.Msg)
		for i := range e.Keys {
			b.WriteByte(' ')
			b.WriteString(e.Keys[i])
			b.WriteByte('=')
			v := e.Vals[i]
			if strings.ContainsAny(v, " \t\"") {
				v = fmt.Sprintf("%q", v)
			}
			b.WriteString(v)
		}
		b.WriteByte('\n')
		mu.Lock()
		io.WriteString(w, b.String())
		mu.Unlock()
	}), min)
}

// With returns a logger that stamps the given key-value pairs onto
// every event. Args are consumed pairwise like Info's.
func (l *Logger) With(args ...any) *Logger {
	if l == nil || len(args) == 0 {
		return l
	}
	k, v := renderPairs(args)
	child := &Logger{sink: l.sink, min: l.min}
	child.keys = append(append([]string(nil), l.keys...), k...)
	child.vals = append(append([]string(nil), l.vals...), v...)
	return child
}

// Enabled reports whether events at lvl would be emitted.
func (l *Logger) Enabled(lvl Level) bool { return l != nil && lvl >= l.min }

func (l *Logger) log(lvl Level, msg string, args []any) {
	if !l.Enabled(lvl) {
		return
	}
	k, v := renderPairs(args)
	if len(l.keys) > 0 {
		k = append(append([]string(nil), l.keys...), k...)
		v = append(append([]string(nil), l.vals...), v...)
	}
	l.sink.Emit(Event{Time: time.Now(), Level: lvl, Msg: msg, Keys: k, Vals: v})
}

// Info logs at info level; args are alternating key, value pairs.
func (l *Logger) Info(msg string, args ...any) { l.log(LevelInfo, msg, args) }

// Warn logs at warn level; args are alternating key, value pairs.
func (l *Logger) Warn(msg string, args ...any) { l.log(LevelWarn, msg, args) }

// Error logs at error level; args are alternating key, value pairs.
func (l *Logger) Error(msg string, args ...any) { l.log(LevelError, msg, args) }

// Logf logs a printf-formatted message at info level, for call sites
// whose message is a sentence rather than key-value pairs.
func (l *Logger) Logf(format string, args ...any) {
	if !l.Enabled(LevelInfo) {
		return
	}
	l.log(LevelInfo, fmt.Sprintf(format, args...), nil)
}

// renderPairs renders alternating key, value args to parallel string
// slices. A trailing key without a value gets "(MISSING)"; non-string
// keys render via %v so malformed calls degrade instead of panicking.
func renderPairs(args []any) (keys, vals []string) {
	if len(args) == 0 {
		return nil, nil
	}
	n := (len(args) + 1) / 2
	keys = make([]string, 0, n)
	vals = make([]string, 0, n)
	for i := 0; i < len(args); i += 2 {
		var k string
		if s, ok := args[i].(string); ok {
			k = s
		} else {
			k = fmt.Sprintf("%v", args[i])
		}
		keys = append(keys, k)
		if i+1 < len(args) {
			vals = append(vals, renderVal(args[i+1]))
		} else {
			vals = append(vals, "(MISSING)")
		}
	}
	return keys, vals
}

func renderVal(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case error:
		return x.Error()
	case fmt.Stringer:
		return x.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}
