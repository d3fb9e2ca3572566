package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/forwarding"
	"mcio/internal/workload"
)

// motivationPins are the exact independent and forwarded prices of the
// §2 motivation workload at scale 64, seed 1: seconds and bandwidth as
// float bits, then the engine totals. The exp_all golden shows these
// only as one-decimal MB/s, so a change that moves the last bit of a
// price passes it; this table does not.
const motivationPins = `
independent/write/64KB seconds=3fb07baa0fb37c3d bandwidth=41cd1eecbedda234 totals={Rounds:1 CommTime:0.0029296875 IOTime:0.061457279999999906 Time:0.0643869674999999 NetBytes:0 ShufBytes:0 IOBytes:62914560 Requests:61440 RecoverySeconds:0 RecoveryRounds:0}
forwarding/write/64KB seconds=3fa98e31f147908f bandwidth=41d2c85e261e48ab totals={Rounds:30 CommTime:0.014660167425870882 IOTime:0.035252820000000025 Time:0.04991298742587091 NetBytes:62914560 ShufBytes:62914560 IOBytes:62914560 Requests:5460 RecoverySeconds:0 RecoveryRounds:0}
independent/read/64KB seconds=3fadbeb1e3dfb056 bandwidth=41d02320cb1d60d0 totals={Rounds:1 CommTime:0.0029296875 IOTime:0.05516582400000007 Time:0.05809551150000007 NetBytes:0 ShufBytes:0 IOBytes:62914560 Requests:61440 RecoverySeconds:0 RecoveryRounds:0}
forwarding/read/64KB seconds=3fa63bcaa3e40e0b bandwidth=41d596c7b0a881c1 totals={Rounds:30 CommTime:0.014660167425870882 IOTime:0.02876475599999998 Time:0.043424923425870864 NetBytes:62914560 ShufBytes:62914560 IOBytes:62914560 Requests:5460 RecoverySeconds:0 RecoveryRounds:0}
independent/write/256KB seconds=3fa5723567150d03 bandwidth=41d661b4ae530d22 totals={Rounds:1 CommTime:0.0029296875 IOTime:0.038957280000000004 Time:0.041886967500000004 NetBytes:0 ShufBytes:0 IOBytes:62914560 Requests:15360 RecoverySeconds:0 RecoveryRounds:0}
forwarding/write/256KB seconds=3faa586c11a9dbaf bandwidth=41d2383128bf5900 totals={Rounds:30 CommTime:0.014660167425870882 IOTime:0.03679569 Time:0.05145585742587088 NetBytes:62914560 ShufBytes:62914560 IOBytes:62914560 Requests:2700 RecoverySeconds:0 RecoveryRounds:0}
independent/read/256KB seconds=3fa239932b8dc4c8 bandwidth=41da566c5222496e totals={Rounds:1 CommTime:0.0029296875 IOTime:0.03266582400000001 Time:0.03559551150000001 NetBytes:0 ShufBytes:0 IOBytes:62914560 Requests:15360 RecoverySeconds:0 RecoveryRounds:0}
forwarding/read/256KB seconds=3fa6b8b58eb1aa6f bandwidth=41d52016bc7481cd totals={Rounds:30 CommTime:0.014660167425870882 IOTime:0.029717801999999998 Time:0.044377969425870904 NetBytes:62914560 ShufBytes:62914560 IOBytes:62914560 Requests:2700 RecoverySeconds:0 RecoveryRounds:0}
independent/write/1024KB seconds=3fa290edb9009223 bandwidth=41d9da812fcee6fd totals={Rounds:1 CommTime:0.0029296875 IOTime:0.03333228000000001 Time:0.03626196750000001 NetBytes:0 ShufBytes:0 IOBytes:62914560 Requests:3840 RecoverySeconds:0 RecoveryRounds:0}
forwarding/write/1024KB seconds=3fa9ac9f9a985750 bandwidth=41d2b21b6d2c81ad totals={Rounds:30 CommTime:0.014660167425870882 IOTime:0.035484970000000005 Time:0.0501451374258709 NetBytes:62914560 ShufBytes:62914560 IOBytes:62914560 Requests:2640 RecoverySeconds:0 RecoveryRounds:0}
independent/read/1024KB seconds=3f9eb096faf293cc bandwidth=41df47df0ff340b6 totals={Rounds:1 CommTime:0.0029296875 IOTime:0.027040824000000005 Time:0.029970511500000005 NetBytes:0 ShufBytes:0 IOBytes:62914560 Requests:3840 RecoverySeconds:0 RecoveryRounds:0}
forwarding/read/1024KB seconds=3fa62f452f7073bc bandwidth=41d5a2f713d5691b totals={Rounds:30 CommTime:0.014660167425870882 IOTime:0.028669225999999992 Time:0.043329393425870916 NetBytes:62914560 ShufBytes:62914560 IOBytes:62914560 Requests:2640 RecoverySeconds:0 RecoveryRounds:0}
independent/write/4096KB seconds=3fa290edb9009221 bandwidth=41d9da812fcee700 totals={Rounds:1 CommTime:0.0029296875 IOTime:0.03333228 Time:0.0362619675 NetBytes:0 ShufBytes:0 IOBytes:62914560 Requests:3840 RecoverySeconds:0 RecoveryRounds:0}
forwarding/write/4096KB seconds=3fa81796089e444e bandwidth=41d3ec6b8c2752b4 totals={Rounds:30 CommTime:0.014660167425870882 IOTime:0.03239477999999999 Time:0.047054947425870894 NetBytes:62914560 ShufBytes:62914560 IOBytes:62914560 Requests:1920 RecoverySeconds:0 RecoveryRounds:0}
independent/read/4096KB seconds=3f9eb096faf293ce bandwidth=41df47df0ff340b4 totals={Rounds:1 CommTime:0.0029296875 IOTime:0.027040824000000012 Time:0.029970511500000012 NetBytes:0 ShufBytes:0 IOBytes:62914560 Requests:3840 RecoverySeconds:0 RecoveryRounds:0}
forwarding/read/4096KB seconds=3fa4def3cd16fc15 bandwidth=41d6ff9f0ce75b6e totals={Rounds:30 CommTime:0.014660167425870882 IOTime:0.02610332400000001 Time:0.040763491425870914 NetBytes:62914560 ShufBytes:62914560 IOBytes:62914560 Requests:1920 RecoverySeconds:0 RecoveryRounds:0}
`

// TestMotivationIndependentAndForwardingExact pins CostIndependent and
// forwarding.Cost on the motivation workload, written and read, bit
// for bit.
func TestMotivationIndependentAndForwardingExact(t *testing.T) {
	var got []string
	cfg := Fig7Config(64, 1)
	opt := cfg.options()
	for _, blockKB := range []int64{64, 256, 1024, 4096} {
		block := cfg.scaled(blockKB << 10)
		w := workload.IOR{Ranks: cfg.Ranks, BlockSize: block, TransferSize: block,
			Segments: max(int((4<<20)/(blockKB<<10)*8), 1)}
		p, err := newPoint(cfg, w, "", 16)
		if err != nil {
			t.Fatal(err)
		}
		fctx := *p.ctx
		fctx.Machine.Nodes += 2
		fctx.Avail = append(append([]int64(nil), p.ctx.Avail...),
			fctx.Machine.MemPerNode, fctx.Machine.MemPerNode)
		for _, op := range []collio.Op{collio.Write, collio.Read} {
			indep, err := collio.CostIndependent(p.ctx, p.reqs, op, opt)
			if err != nil {
				t.Fatal(err)
			}
			fwd, err := forwarding.Cost(&fctx, p.reqs, op, opt,
				forwarding.Config{Forwarders: 2, BufferBytes: cfg.scaled(64 * MB)})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*collio.CostResult{indep, fwd} {
				name := r.Strategy
				if name == "io-forwarding" {
					name = "forwarding"
				}
				got = append(got, fmt.Sprintf("%s/%s/%dKB seconds=%016x bandwidth=%016x totals=%+v",
					name, op, blockKB, math.Float64bits(r.Seconds), math.Float64bits(r.Bandwidth), r.Totals))
			}
		}
	}
	want := strings.Split(strings.TrimSpace(motivationPins), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d results, pinned %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("result %d\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
