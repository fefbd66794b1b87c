package kernelc

import "testing"

// TestTierString pins the names the compile cache and obs labels key on:
// the two defined tiers plus the tier(<n>) rendering for out-of-range
// values, which must stay distinct from every defined name so a
// miskeyed tier can never alias a real cache entry.
func TestTierString(t *testing.T) {
	cases := []struct {
		tier Tier
		want string
	}{
		{TierOpt, "opt"},
		{TierPlain, "plain"},
		{Tier(2), "tier(2)"},
		{Tier(-1), "tier(-1)"},
		{Tier(99), "tier(99)"},
	}
	for _, tc := range cases {
		if got := tc.tier.String(); got != tc.want {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tc.tier), got, tc.want)
		}
	}
	// Unknown tiers must not collide with defined names.
	if Tier(7).String() == TierOpt.String() || Tier(7).String() == TierPlain.String() {
		t.Fatalf("unknown tier aliases a defined tier name")
	}
}
