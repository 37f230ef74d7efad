package mesg

// Pool is a freelist of Message structs. The exec-driven simulator
// churns through one short-lived Message per protocol hop — by far the
// largest allocation class in a run — and the engine is strictly
// single-threaded, so a plain LIFO freelist (no sync.Pool, no locks)
// recycles them with two pointer moves. Each simulated machine owns
// its pool; parallel sweep workers therefore never contend.
//
// Ownership discipline (enforced statically by the msgown analyzer's
// use-after-release check, see docs/ANALYSIS.md): Release transfers
// ownership of the struct to the pool — the releasing controller must
// be the message's final consumer and must not touch it afterwards.
// Components that retain delivered messages (a home directory queuing
// a request) simply don't release until their retention ends.
//
// A nil *Pool is valid and allocates from the heap on Get while
// discarding on Release, so pooling can be switched off wholesale
// (e.g. when a protocol monitor that retains message pointers is
// attached) without touching any call site.
type Pool struct {
	free []*Message
}

// Get returns a zeroed Message, reusing a released one when available.
func (p *Pool) Get() *Message {
	if p == nil || len(p.free) == 0 {
		return &Message{}
	}
	m := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	*m = Message{}
	return m
}

// Release returns m to the pool. m must not be used afterwards. Both a
// nil pool and a nil message are no-ops, so terminal protocol points
// can release unconditionally.
func (p *Pool) Release(m *Message) {
	if p == nil || m == nil {
		return
	}
	p.free = append(p.free, m)
}
