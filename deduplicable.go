package speed

import (
	"fmt"

	"speed/internal/mle"
)

// Deduplicable wraps a deterministic function so that calls to it are
// transparently deduplicated through SPEED, mirroring the C++
// Deduplicable template of the prototype (Section IV-C). Creating the
// wrapper and calling it are the paper's "2 lines of code per function
// call":
//
//	d, err := speed.NewDeduplicable(app, desc, fn, opts...)
//	out, err := d.Call(in)
type Deduplicable[I, O any] struct {
	app *App
	id  mle.FuncID
	fn  func(I) (O, error)
	in  Codec[I]
	out Codec[O]
}

// DedupOption configures a Deduplicable at construction.
type DedupOption[I, O any] func(*Deduplicable[I, O])

// WithInputCodec sets the input serialisation; the default is
// GobCodec[I].
func WithInputCodec[I, O any](c Codec[I]) DedupOption[I, O] {
	return func(d *Deduplicable[I, O]) { d.in = c }
}

// WithOutputCodec sets the output serialisation; the default is
// GobCodec[O].
func WithOutputCodec[I, O any](c Codec[O]) DedupOption[I, O] {
	return func(d *Deduplicable[I, O]) { d.out = c }
}

// NewDeduplicable makes fn deduplicable under the given function
// description. The description's library must have been registered at
// the application with RegisterLibrary, proving the application owns
// the function's code; otherwise construction fails.
func NewDeduplicable[I, O any](app *App, desc FuncDesc, fn func(I) (O, error), opts ...DedupOption[I, O]) (*Deduplicable[I, O], error) {
	if fn == nil {
		return nil, fmt.Errorf("speed: nil function for %v", desc)
	}
	id, err := app.runtime.Resolve(desc)
	if err != nil {
		return nil, err
	}
	d := &Deduplicable[I, O]{
		app: app,
		id:  id,
		fn:  fn,
		in:  GobCodec[I]{},
		out: GobCodec[O]{},
	}
	for _, opt := range opts {
		opt(d)
	}
	return d, nil
}

// Call invokes the wrapped function with deduplication and returns its
// result.
func (d *Deduplicable[I, O]) Call(in I) (O, error) {
	out, _, err := d.CallOutcome(in)
	return out, err
}

// BatchCallResult is one input's result from CallBatch. Err is
// per-item: one failed input does not poison its batch siblings.
type BatchCallResult[O any] struct {
	Out     O
	Outcome Outcome
	Err     error
}

// CallBatch invokes the wrapped function over many inputs with
// deduplication, aligned positionally with the returned results. The
// whole batch enters the enclave once, consults the store with one
// batched GET/PUT exchange, and computes misses in parallel, so small
// computations pay the enclave-transition and store round-trip costs
// once per batch rather than once per call. Duplicate inputs within
// the batch are computed once and shared.
func (d *Deduplicable[I, O]) CallBatch(ins []I) ([]BatchCallResult[O], error) {
	if len(ins) == 0 {
		return nil, nil
	}
	inBytes := make([][]byte, len(ins))
	for i := range ins {
		b, err := d.in.Encode(ins[i])
		if err != nil {
			return nil, fmt.Errorf("speed: encode input %d: %w", i, err)
		}
		inBytes[i] = b
	}
	raws, err := d.app.runtime.ExecuteBatch(d.id, inBytes, d.compute)
	if err != nil {
		return nil, err
	}
	results := make([]BatchCallResult[O], len(ins))
	for i, r := range raws {
		if r.Err != nil {
			results[i].Err = r.Err
			continue
		}
		out, derr := d.out.Decode(r.Result)
		if derr != nil {
			results[i].Err = fmt.Errorf("speed: decode result: %w", derr)
			continue
		}
		results[i] = BatchCallResult[O]{Out: out, Outcome: r.Outcome}
	}
	return results, nil
}

// CallOutcome is Call, additionally reporting whether the result was
// freshly computed or reused from the store.
func (d *Deduplicable[I, O]) CallOutcome(in I) (O, Outcome, error) {
	var zero O
	inBytes, err := d.in.Encode(in)
	if err != nil {
		return zero, 0, fmt.Errorf("speed: encode input: %w", err)
	}
	resBytes, outcome, err := d.app.runtime.Execute(d.id, inBytes, d.compute)
	if err != nil {
		return zero, 0, err
	}
	out, err := d.out.Decode(resBytes)
	if err != nil {
		return zero, 0, fmt.Errorf("speed: decode result: %w", err)
	}
	return out, outcome, nil
}

// compute is the marked computation as the runtime sees it: encoded
// input in, encoded result out, for Call and CallBatch alike. raw is
// the encoding the caller made; decoding it again lets the wrapped
// function see its native type.
func (d *Deduplicable[I, O]) compute(raw []byte) ([]byte, error) {
	v, err := d.in.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("speed: decode input: %w", err)
	}
	out, err := d.fn(v)
	if err != nil {
		return nil, err
	}
	return d.out.Encode(out)
}
