package system

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cmpcache/internal/config"
	"cmpcache/internal/workload"
)

// TestResultDigestsPinned pins the simulator's complete outcome across
// commits: the SHA-256 of Results.MarshalJSON for every built-in
// workload under every registered write-back policy, plus two stressed
// corners (a small hierarchy with 2-entry queues, and a 16-L2 chip).
// Any change to event order, arbitration or accounting moves a digest.
// A refactor that is meant to be behaviour-preserving must leave every
// digest as it is; a digest moves only with a change that means to
// alter simulated behaviour, and that change must say why.
func TestResultDigestsPinned(t *testing.T) {
	small := config.Default().WithMechanism(config.Combined)
	small.L2SliceKB = 16
	small.WBQueueEntries, small.L3QueueEntries = 2, 2
	big := config.Default().WithMechanism(config.Combined)
	big.Cores = 32 // 16 L2s

	type cell struct {
		name     string
		workload string
		cfg      config.Config
		refs     int
		want     string
	}
	var cells []cell
	mechs := []config.Mechanism{config.Baseline, config.WBHT, config.Snarf,
		config.Combined, config.ReuseDist, config.HybridUI}
	for _, w := range []string{"cpw2", "notesbench", "tp", "trade2"} {
		for _, m := range mechs {
			cells = append(cells, cell{name: w + "/" + m.String(), workload: w,
				cfg: config.Default().WithMechanism(m), refs: 2000})
		}
	}
	cells = append(cells,
		cell{name: "small/tp", workload: "tp", cfg: small, refs: 2000},
		cell{name: "big16/trade2", workload: "trade2", cfg: big, refs: 500},
	)
	want := pinnedDigests
	for _, c := range cells {
		p, err := workload.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		p.Threads, p.RefsPerThread = c.cfg.Threads(), c.refs
		tr, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(c.cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(s.Run())
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[c.name] {
			t.Errorf("%s: Results digest %s, pinned %s", c.name, got, want[c.name])
		}
	}
}

// pinnedDigests are the Results.MarshalJSON SHA-256 digests the cells
// above produce.
var pinnedDigests = map[string]string{
	"cpw2/base":            "65d07b674f3b2d3066b1c80602a125b1ebdd7abefc008faeee45a8df38a278b6",
	"cpw2/wbht":            "47dc86b66f3413eb5c957e721843edd80170d4a9eba6b6f01ad310b3e3865d8b",
	"cpw2/snarf":           "0f96faa27220a2bcd236f3788d63ae20e4a07d528ab8dbba27bafa8b3b4378a5",
	"cpw2/combined":        "380a7c43b256b427afe64b8ea81ee6f9cf32df844995f08c4646239688d7ccf1",
	"cpw2/reusedist":       "712e6951f03e1a2b1e087daf56d6b4d1016bd7334d87e28a5e69498bb5e33196",
	"cpw2/hybridui":        "7b92f0ca2996fe0d65799974405428953a8b7fd2b211975fa826ac4c04202535",
	"notesbench/base":      "300256e3f69117fd9d1ba8e78b128eec39b5abc750e7ecb865802333a2df3cff",
	"notesbench/wbht":      "ba7f7622c400793034c7060a373f905fbb6bd783fb33b53cbb827a04b1295e1a",
	"notesbench/snarf":     "0758bac59f1db9294faed0417c1108b3a32e54d74c12895149fd70d0b30e4be1",
	"notesbench/combined":  "e17e07fa1208e69bbcc56017972d2224576f288f7d4ae9913782cb62231c2634",
	"notesbench/reusedist": "618bd460de33277ce538a93cbfcc84beaa91498f947a39c121e134f17e5ebe82",
	"notesbench/hybridui":  "1d8ebe7404b07016e7f185703dd622c47a6454c8e14d0dad69daf3ee0a5db29b",
	"tp/base":              "7d26726a58a79ded56b4d5b12e1088d5505b0cb4ffddc1945e87ed313d5b99e7",
	"tp/wbht":              "08a6a2999316bfd102de78455d58c1dea1bd1c74e8c26f920914768d2d0f6549",
	"tp/snarf":             "54495745c93b234d86a494d061a137075632bf8e1c2ecaf1e734aad8466e53d6",
	"tp/combined":          "ec0996fefe5aacc26135b32497ea8abf3f079754f6a85c247c9a43c71ac79f12",
	"tp/reusedist":         "e63a2fa061837fe6b5b43f9aae9e2a0d13ce005be8d400338935d809c5bac516",
	"tp/hybridui":          "e9e61d893f86a38c8ee77b03797c6ef4ea60d7a57645de81633e9d9d4e3fd656",
	"trade2/base":          "35decba27f74be9afe7eda41916236abc6251e7e2ae75c266e2b37aa4025b707",
	"trade2/wbht":          "d6b2e0c2496df9882680a93140abc948904d0492244ca9f3eda7fdff7458c5dc",
	"trade2/snarf":         "1ea969d44ec74753bc779fb011c576d633147d279d9dfdb01a02cc3ab7d16583",
	"trade2/combined":      "6f2957c22de1825d538c3fe24d1c9c77cadc02ce21f9abb3edcac9168e59398e",
	"trade2/reusedist":     "81b7d054b7a1a6b4b4fc4baacc915eb0da62ad7040939f819295415dd56d1ca7",
	"trade2/hybridui":      "018f037a4b11057042f1c92f289c80abc6fbc8a07259d2dd8b58d4d4eec32fc6",
	"small/tp":             "65b17143b6c5d9678a380d8b09ffd91804726ba9cbe0b87cf29a9b86d1a7b752",
	"big16/trade2":         "77e1e0aa88c223ea5326f4f354ee961029edbe286775d9721e1cf526c18664e8",
}
