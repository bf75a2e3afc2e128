package main

import "testing"

func TestServicePlanRepeatsAQuarter(t *testing.T) {
	seen := map[int64]int{} // simulation seed → client
	for c := 0; c < serviceClients; c++ {
		plan := servicePlan(5, c)
		if len(plan) != requestsPerRep {
			t.Fatalf("client %d plans %d requests, want %d", c, len(plan), requestsPerRep)
		}
		repeats := 0
		for i, r := range plan {
			if r.repeat < 0 {
				if owner, dup := seen[r.body.Seed]; dup {
					t.Errorf("client %d request %d reuses seed %d of client %d", c, i, r.body.Seed, owner)
				}
				seen[r.body.Seed] = c
				continue
			}
			repeats++
			if r.repeat >= i || plan[r.repeat].repeat >= 0 || plan[r.repeat].body != r.body {
				t.Errorf("client %d request %d repeats %d, which is not an earlier miss with the same body", c, i, r.repeat)
			}
		}
		if repeats*repeatEvery != requestsPerRep {
			t.Errorf("client %d repeats %d of %d requests, want a quarter", c, repeats, requestsPerRep)
		}
	}
	a, b := servicePlan(5, 1), servicePlan(5, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan for one seed differs between calls at %d", i)
		}
	}
}
