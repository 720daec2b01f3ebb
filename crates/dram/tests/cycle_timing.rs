//! Property tests for the cycle tier's bank clocks: every command is
//! accounted for, every demand takes at least its service time, urgent
//! mitigation never serves demand sooner than background mitigation,
//! and bank shards time exactly like the whole run.

use dram_sim::{
    BankId, Command, CycleBackend, CycleStats, DisturbanceBackend, DramDevice, Geometry,
    LatencyStats, MitigationPriority, RowAddr,
};
use proptest::prelude::*;

/// A command stream over `banks` banks: demands, with mitigation
/// commands (`act_n`, victim refresh) and interval refreshes mixed in.
/// Sparse streams refresh every dozen commands or so; dense ones every
/// few hundred, which fills banks past their activation budget.
fn commands(banks: u32) -> impl Strategy<Value = Vec<Command>> {
    let stream = move |kinds: u32, demands: u32, length: usize| {
        proptest::collection::vec(
            (0..kinds, 0..banks, 0u32..64).prop_map(move |(kind, bank, row)| {
                let (bank, row) = (BankId(bank), RowAddr(row));
                match kind.checked_sub(demands) {
                    None => Command::Activate { bank, row },
                    Some(0..=9) => Command::ActivateNeighbors { bank, row },
                    Some(10..=14) => Command::RefreshRow { bank, row },
                    Some(_) => Command::Refresh,
                }
            }),
            0..length,
        )
    };
    prop_oneof![stream(60, 40, 400), stream(1000, 980, 1500)]
}

fn run(commands: &[Command], banks: u32, priority: MitigationPriority) -> CycleBackend {
    let device = DramDevice::new(Geometry::new(64, banks, 8).expect("geometry"));
    let mut backend = CycleBackend::new(device).with_priority(priority);
    for &command in commands {
        backend.apply(command);
    }
    backend
}

/// The whole stream's timing, and the timing merged over its bank
/// shards: each shard sees its bank's commands and every refresh.
fn whole_and_sharded(
    commands: &[Command],
    banks: u32,
    priority: MitigationPriority,
) -> ((LatencyStats, CycleStats), (LatencyStats, CycleStats)) {
    let whole = run(commands, banks, priority);
    let sharded = (0..banks)
        .map(|b| {
            let shard: Vec<Command> = commands
                .iter()
                .copied()
                .filter(|command| match *command {
                    Command::Refresh => true,
                    Command::Activate { bank, .. }
                    | Command::ActivateNeighbors { bank, .. }
                    | Command::RefreshRow { bank, .. } => bank == BankId(b),
                })
                .collect();
            let backend = run(&shard, banks, priority);
            (backend.latency(), backend.cycles())
        })
        .reduce(|(l1, c1), (l2, c2)| {
            let latency = LatencyStats {
                demands: l1.demands + l2.demands,
                total_latency_cycles: l1.total_latency_cycles + l2.total_latency_cycles,
                max_latency_cycles: l1.max_latency_cycles.max(l2.max_latency_cycles),
                mitigation_activations: l1.mitigation_activations + l2.mitigation_activations,
                mitigation_stall_cycles: l1.mitigation_stall_cycles + l2.mitigation_stall_cycles,
            };
            (latency, c1.merge(c2))
        })
        .expect("at least one bank");
    ((whole.latency(), whole.cycles()), sharded)
}

fn priority(urgent: bool) -> MitigationPriority {
    if urgent {
        MitigationPriority::Urgent
    } else {
        MitigationPriority::Background
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every demand is served, and the banks take every mitigation
    /// activation the device issued (an edge row's `act_n` is one).
    #[test]
    fn every_demand_is_served_and_every_mitigation_activation_issued(
        one in commands(1),
        four in commands(4),
        urgent in any::<bool>(),
    ) {
        for (commands, banks) in [(&one, 1), (&four, 4)] {
            let backend = run(commands, banks, priority(urgent));
            let latency = backend.latency();
            prop_assert_eq!(latency.demands, backend.stats().workload_activations);
            prop_assert_eq!(
                latency.mitigation_activations,
                backend.stats().mitigation_activations
            );
        }
    }

    /// A demand's latency is at least its service time, so the total is
    /// at least the workload cycles, and no demand waits longer than the
    /// worst one.
    #[test]
    fn every_demand_takes_at_least_its_service_time(
        one in commands(1),
        four in commands(4),
        urgent in any::<bool>(),
    ) {
        for (commands, banks) in [(&one, 1), (&four, 4)] {
            let backend = run(commands, banks, priority(urgent));
            let latency = backend.latency();
            prop_assert!(latency.total_latency_cycles >= backend.cycles().workload_cycles);
            prop_assert!(
                u128::from(latency.max_latency_cycles) * u128::from(latency.demands)
                    >= u128::from(latency.total_latency_cycles)
            );
            if latency.demands == 0 {
                prop_assert_eq!(
                    (latency.total_latency_cycles, latency.max_latency_cycles),
                    (0, 0)
                );
            }
        }
    }

    /// Urgent mitigation takes the bank at the first free cycle; a
    /// background activation issues no earlier, so demand is never
    /// served sooner under urgent priority.
    #[test]
    fn urgent_mean_latency_is_at_least_background(
        one in commands(1),
        four in commands(4),
    ) {
        for (commands, banks) in [(&one, 1), (&four, 4)] {
            let background = run(commands, banks, MitigationPriority::Background).latency();
            let urgent = run(commands, banks, MitigationPriority::Urgent).latency();
            prop_assert_eq!(urgent.demands, background.demands);
            prop_assert!(urgent.total_latency_cycles >= background.total_latency_cycles);
        }
    }

    /// On a 4-bank and a 3-bank stream the timing is the sum of the bank
    /// shards' timing (the maximum, for the worst latency), for both
    /// priorities: no rule couples banks.
    #[test]
    fn timing_is_the_sum_of_the_bank_shards(
        four in commands(4),
        three in commands(3),
        urgent in any::<bool>(),
    ) {
        let (whole, sharded) = whole_and_sharded(&four, 4, priority(urgent));
        prop_assert_eq!(whole, sharded);
        let (whole, sharded) = whole_and_sharded(&three, 3, priority(urgent));
        prop_assert_eq!(whole, sharded);
    }

    /// Run delivery times exactly like per-event delivery, whatever the
    /// slice boundaries: a slice may mix banks.
    #[test]
    fn run_delivery_times_like_per_event_delivery(
        commands in commands(3),
        cut in 1usize..40,
        urgent in any::<bool>(),
    ) {
        let per_event = run(&commands, 3, priority(urgent));
        let device = DramDevice::new(Geometry::new(64, 3, 8).expect("geometry"));
        let mut runs = CycleBackend::new(device).with_priority(priority(urgent));
        let mut pending: (Vec<BankId>, Vec<RowAddr>) = (Vec::new(), Vec::new());
        for &command in &commands {
            if let Command::Activate { bank, row } = command {
                pending.0.push(bank);
                pending.1.push(row);
                if pending.0.len() < cut {
                    continue;
                }
            }
            runs.apply_activations(&pending.0, &pending.1);
            pending.0.clear();
            pending.1.clear();
            if !matches!(command, Command::Activate { .. }) {
                runs.apply(command);
            }
        }
        runs.apply_activations(&pending.0, &pending.1);
        prop_assert_eq!(runs.latency(), per_event.latency());
        prop_assert_eq!(runs.cycles(), per_event.cycles());
    }
}
