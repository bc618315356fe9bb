package main

// pinnedDigests holds each cell's output digest at defaultSeed and the
// benchmark's full size. A change that alters simulated results on
// purpose regenerates it with -digests; any other change must leave it
// untouched.
var pinnedDigests = map[string]map[string]string{
	"paper-closed-3x3": {
		"barnes/backpressured":               "cc8f4e60f69c7ba2",
		"barnes/backpressured-ideal-bypass":  "9c72e8355274c6fe",
		"barnes/backpressureless":            "5d5e52e357c6da4c",
		"barnes/afc-always-backpressured":    "d5ada86cfffbc4ab",
		"barnes/afc":                         "69b67b454e72b679",
		"ocean/backpressured":                "caeb07191df8307c",
		"ocean/backpressured-ideal-bypass":   "17fb9f51682ca3e7",
		"ocean/backpressureless":             "dd86e286e3186d69",
		"ocean/afc-always-backpressured":     "72066d24bf525b11",
		"ocean/afc":                          "5c3085becc10a246",
		"water/backpressured":                "5d1f6ef435e7a089",
		"water/backpressured-ideal-bypass":   "56274d44c201414c",
		"water/backpressureless":             "1fe52fa31869075a",
		"water/afc-always-backpressured":     "729440074a8f5b86",
		"water/afc":                          "f02c4d0baf6bf182",
		"apache/backpressured":               "55a67834654b276c",
		"apache/backpressured-ideal-bypass":  "4e57f00c3296646f",
		"apache/backpressureless":            "90bd2384772e2326",
		"apache/afc-always-backpressured":    "b20f1117bf2f50ca",
		"apache/afc":                         "8bd68cbe91e8c8e3",
		"oltp/backpressured":                 "f8a5cc05723a5f14",
		"oltp/backpressured-ideal-bypass":    "5414a5c6c4e2f0fa",
		"oltp/backpressureless":              "ff8bbc951c0cc91a",
		"oltp/afc-always-backpressured":      "59a22415ffd68bf9",
		"oltp/afc":                           "61dbb7bc0add100f",
		"specjbb/backpressured":              "2db968d02d6d39f1",
		"specjbb/backpressured-ideal-bypass": "419ba0a165aae1dc",
		"specjbb/backpressureless":           "36e235e46ba46f07",
		"specjbb/afc-always-backpressured":   "776fca96deea42cb",
		"specjbb/afc":                        "a4878acb05d5b617",
	},
	"mesh32-uniform": {
		"uniform/backpressured":            "124da916e80e4283",
		"uniform/backpressureless":         "653c7f9882b1f0eb",
		"uniform/afc":                      "7edcfb369ad7f729",
		"uniform/afc-always-backpressured": "1a2af053ea44b80b",
	},
	"scenario-16x16-faults": {
		"faults/backpressured":            "c320843d78ddc122",
		"faults/backpressureless":         "59618a884844b1da",
		"faults/backpressureless-drop":    "7537775518fb2b47",
		"faults/afc":                      "fe3bc3cbe9b95e7b",
		"faults/afc-always-backpressured": "c093f369e8c57c9d",
	},
}

// pinned returns the pinned digests of workload name, or nil when seed
// has none.
func pinned(name string, seed int64) map[string]string {
	if seed != defaultSeed {
		return nil
	}
	return pinnedDigests[name]
}
