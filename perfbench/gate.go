package main

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/shard"
)

// checkRecovery is the correctness gate after a closed-loop run: crash
// recovery must rebuild exactly the durable version of every key, the
// device's power-off rebuild must match its live map, and the FTL's
// structural invariants must hold.
func checkRecovery(recovered, durable []int64, sporMismatches int64, invariants error) error {
	if len(recovered) != len(durable) {
		return fmt.Errorf("recovery covers %d keys, durable state has %d", len(recovered), len(durable))
	}
	for k, v := range durable {
		if recovered[k] != v {
			return fmt.Errorf("recovery: key %d recovered version %d, durable version %d", k, recovered[k], v)
		}
	}
	if sporMismatches != 0 {
		return fmt.Errorf("spor: %d mappings rebuilt wrong", sporMismatches)
	}
	if invariants != nil {
		return fmt.Errorf("ftl invariants: %w", invariants)
	}
	return nil
}

// checkShardReport is the gate for a sharded run. Its stacks are private
// to the ShardedDB, so there is no durability check: only the accounting
// the report keeps in two places is compared. Every admitted op must
// complete, the per-shard completions must add up to the per-tenant ones,
// and every shard must serve traffic.
func checkShardReport(rep *shard.Report) error {
	if rep.Done != rep.Admitted {
		return fmt.Errorf("shard: admitted %d ops, done %d", rep.Admitted, rep.Done)
	}
	var shardDone uint64
	for _, r := range rep.ShardRows {
		if r.Done == 0 {
			return fmt.Errorf("shard %d served no ops", r.ID)
		}
		shardDone += r.Done
	}
	if shardDone != rep.Done {
		return fmt.Errorf("shard: tenants completed %d ops, shards %d", rep.Done, shardDone)
	}
	return nil
}
