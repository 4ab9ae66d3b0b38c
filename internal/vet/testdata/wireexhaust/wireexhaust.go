// Fixture for the wire-exhaustiveness analyzer: a self-contained
// miniature of internal/wire, checked under the import path
// dodo/internal/wire so the dispatch check applies. Only the switches
// over Message below are checked: what registers a type is a unit test.
package wire

// Type tags a frame on the wire.
type Type uint8

// The message types the dispatch switches are counted against are the
// four structs whose pointer implements Message, not these constants:
// one with no message behind it is internal/wire's TestTypeTable's to
// catch, not the analyzer's.
const (
	TInvalid Type = iota
	TPing
	TPong
	TReport
	TReportAck
	typeSentinel
)

var typeNames = map[Type]string{
	TInvalid:   "invalid",
	TPing:      "ping",
	TPong:      "pong",
	TReport:    "report",
	TReportAck: "report-ack",
}

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return "unknown"
}

// Message is the decoded form of a frame.
type Message interface {
	Kind() Type
}

type Ping struct{}

func (*Ping) Kind() Type { return TPing }

type Pong struct{}

func (*Pong) Kind() Type { return TPong }

// Report and ReportAck miniature the inventory re-report pair: a
// request pushed by a daemon and its acknowledgement. Fully registered,
// so their only job here is growing the registry the dispatch checks
// count against.
type Report struct{}

func (*Report) Kind() Type { return TReport }

type ReportAck struct{}

func (*ReportAck) Kind() Type { return TReportAck }

func newMessage(t Type) Message {
	switch t {
	case TPing:
		return &Ping{}
	case TPong:
		return &Pong{}
	case TReport:
		return &Report{}
	case TReportAck:
		return &ReportAck{}
	}
	return nil
}

// dispatch forgets everything but Ping: a default clause would not save
// it either — that is exactly how a new type gets silently dropped.
func dispatch(msg Message) {
	switch msg.(type) { // want `type switch over wire.Message misses 3 of 4 message types \(Pong, Report, ReportAck\)`
	case *Ping:
	}
}

// correlate intentionally matches a subset (a sender draining its own
// responses); the directive records that decision. Without it the
// switch would be a finding — the golden test proves the suppression
// works because no want comment matches here.
func correlate(msg Message) {
	//vet:ignore wire-exhaustiveness — narrow correlation switch: only replies reach this channel
	switch msg.(type) {
	case *Pong:
	case *ReportAck:
	}
}

// handleAll covers every registered message: no finding.
func handleAll(msg Message) {
	switch msg.(type) {
	case *Ping:
	case *Pong:
	case *Report:
	case *ReportAck:
	}
}
