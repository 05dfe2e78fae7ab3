package experiments

import (
	"fmt"

	"github.com/spyker-fl/spyker/internal/compress"
)

// CompressionStudy extends the paper's bandwidth evaluation (Fig. 12):
// Spyker is the most traffic-hungry algorithm of the comparison, so we
// measure what client-update compression buys — raw float64 vs 8-bit
// quantization vs top-10% delta sparsification — and what it costs in
// accuracy and convergence time. The lossy reconstruction is applied
// inside the simulation, so the accuracy numbers are real.
type CompressionStudy struct {
	Target float64
	Rows   []CompressionRow
}

// CompressionRow is one codec's outcome.
type CompressionRow struct {
	Codec             string
	TimeToTarget      float64 // 0 = not reached
	FinalAcc          float64
	ClientServerBytes int
	ServerServerBytes int
}

// RunCompressionStudy runs Spyker on non-IID MNIST under each codec.
func RunCompressionStudy(scale float64, seed int64) (*CompressionStudy, error) {
	const target = 0.92
	study := &CompressionStudy{Target: target}
	setup := baseSetup(population(100, scale, 8), seed)
	setup.TargetAcc = target
	setup.Horizon = 120
	var w sweep
	for _, codec := range []compress.Codec{compress.Raw{}, compress.Quantize8{}, compress.TopK{Fraction: 0.10}} {
		setup.Codec = codec
		res := w.run("spyker", setup, nil)
		study.Rows = append(study.Rows, CompressionRow{
			Codec:             codec.Name(),
			TimeToTarget:      timeTo(res.Trace, target),
			FinalAcc:          res.Trace.BestAcc(),
			ClientServerBytes: res.BytesClientServer,
			ServerServerBytes: res.BytesServerServer,
		})
	}
	return study, w.err
}

// Render prints the codec comparison.
func (c *CompressionStudy) Render() string {
	t := titled(fmt.Sprintf("=== update-compression extension (Spyker, target %.0f%%%%) ===\n", 100*c.Target),
		col{"codec", -10, ""}, col{"t(target)", 12, ""}, col{"best acc", 10, "%"},
		col{"client-server", 16, "MB"}, col{"server-server", 14, "MB"})
	for _, r := range c.Rows {
		t.row(r.Codec, timeCell(r.TimeToTarget), fixed(100*r.FinalAcc, 1),
			fixed(mb(r.ClientServerBytes), 1), fixed(mb(r.ServerServerBytes), 1))
	}
	return t.b.String() + "\nclient->server traffic shrinks ~8x under q8 and further under top-k;\n" +
		"server->client and server<->server traffic is unchanged (updates only).\n"
}
