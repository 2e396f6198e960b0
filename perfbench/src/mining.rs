//! `mine-covid`: the paper's batch job, in process and on one thread.
//!
//! The end-to-end run calls only the miners' top-level entry points
//! (`RlMiner::new` / `train_for` / `mine`, `er_enuminer::mine`). The traced
//! run replays the same training through the layers' public calls.

use crate::report::Report;
use crate::stats::median_of;
use crate::trace::{breakdown, Tracer};
use crate::{steal, Ctx};
use er_datagen::{DatasetKind, Scenario, ScenarioConfig};
use er_enuminer::EnuMinerConfig;
use er_rl::{DqnAgent, DqnConfig, Transition};
use er_rlminer::{MinerEnv, RewardConfig, RlMiner, RlMinerConfig, StateEncoder};
use er_rules::{apply_rules, rules_to_json, ConditionSpaceConfig, EditingRule, Measures};
use std::time::{Duration, Instant};

/// RLMiner training steps per job.
pub const RL_STEPS: usize = 1_000;
/// EnuMiner's evaluation budget per call.
pub const ENU_BUDGET: usize = 400;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// RLMiner jobs per run; `job_s` is their median.
const RL_JOBS: usize = 3;

fn scenario(seed: u64) -> Scenario {
    DatasetKind::Covid.build(ScenarioConfig {
        seed,
        ..DatasetKind::Covid.paper_config()
    })
}

/// The condition space both miners search. Typos planted by the scenario
/// add a seed-dependent number of values to each attribute, and with the
/// default (prefix-reduce domains above 64 values) the value network's
/// width swung from 153 to 257 inputs across seeds; reducing every domain
/// above 16 values to 16 prefix groups keeps the mining work about the
/// same for every seed.
fn condition_space() -> ConditionSpaceConfig {
    ConditionSpaceConfig {
        max_domain: 16,
        ..ConditionSpaceConfig::default()
    }
}

fn rl_config(s: &Scenario, seed: u64) -> RlMinerConfig {
    let mut c = RlMinerConfig::new(s.support_threshold);
    c.train_steps = RL_STEPS;
    c.epsilon.2 = RL_STEPS * 3 / 5;
    c.seed = seed;
    c.threads = 1;
    c.condition_space = condition_space();
    c
}

fn enu_config(s: &Scenario) -> EnuMinerConfig {
    let mut c = EnuMinerConfig::new(s.support_threshold);
    c.max_rules_evaluated = Some(ENU_BUDGET);
    c.threads = 1;
    c.condition_space = condition_space();
    c
}

/// FNV-1a of the rule set's JSON document.
fn rules_hash(rules: &[(EditingRule, Measures)], s: &Scenario) -> u64 {
    rules_to_json(rules, &s.task)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn f1_of(rules: &[(EditingRule, Measures)], s: &Scenario) -> f64 {
    let rules: Vec<EditingRule> = rules.iter().map(|(r, _)| r.clone()).collect();
    s.evaluate(&apply_rules(&s.task, &rules)).f1
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // Set-up: build the scenario and the miner.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = scenario(ctx.seed);
        let miner = RlMiner::new(&s.task, rl_config(&s, ctx.seed));
        setups.push(t.elapsed().as_secs_f64());
        built = Some((s, miner));
    }
    report.e2e.insert("setup_s", median_of(&setups));
    let (s, first_miner) = built.ok_or("no set-up ran")?;
    ctx.log(&format!(
        "scenario and miner built: state dim {}, action dim {}",
        first_miner.encoder().state_dim(),
        first_miner.encoder().action_dim()
    ));

    // RLMiner jobs (train for a fixed number of steps, then infer), each
    // followed by a stretch of EnuMiner calls at a fixed evaluation budget:
    // interleaved, so a slow spell of the host lands on a share of both. A
    // job and its stretch count only when clean of CPU steal; jobs go on,
    // up to a cap, until RL_JOBS of them were clean.
    let mut miner = Some(first_miner);
    let (mut rl_secs, mut rl_steps, mut rl_hashes, mut rl_rules) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut all_rl_secs, mut all_rl_steps) = (Vec::new(), Vec::new());
    let (mut enu_us, mut enu_tails, mut all_enu_us, mut enu_hash, mut enu_rules) =
        (Vec::new(), Vec::new(), Vec::new(), None, Vec::new());
    let stretch = Duration::from_secs_f64(ctx.seconds * 0.4 / RL_JOBS as f64);
    let cap = Duration::from_secs_f64(ctx.seconds * steal::CAP);
    let clean_jobs = steal::until_clean(RL_JOBS, Duration::ZERO, cap, || {
        let mut m = match miner.take() {
            Some(m) => m,
            None => RlMiner::new(&s.task, rl_config(&s, ctx.seed)),
        };
        let before = steal::now();
        let t = Instant::now();
        let stats = m.train_for(&s.task, RL_STEPS);
        let mined = m.mine(&s.task);
        let secs = t.elapsed().as_secs_f64();
        let steps = stats.steps as f64 / stats.elapsed.as_secs_f64();
        rl_hashes.push(rules_hash(&mined.rules, &s));
        rl_rules = mined.rules;

        let until = Instant::now() + stretch;
        let mut calls = Vec::new();
        while calls.len() < 10 || Instant::now() < until {
            let t = Instant::now();
            let r = er_enuminer::mine(&s.task, enu_config(&s));
            calls.push(t.elapsed().as_secs_f64() * 1e6);
            let h = rules_hash(&r.rules, &s);
            report.check(*enu_hash.get_or_insert(h) == h, || {
                "EnuMiner rule sets differ between calls with one seed".into()
            });
            enu_rules = r.rules;
        }
        let clean = steal::clean(before, steal::now());
        all_rl_secs.push(secs);
        all_rl_steps.push(steps);
        all_enu_us.extend(&calls);
        if clean {
            rl_secs.push(secs);
            rl_steps.push(steps);
            enu_tails.push(crate::stats::tail(&crate::stats::sorted(&calls)));
            enu_us.extend(calls);
        }
        Ok(clean)
    })?;
    if clean_jobs == 0 {
        // Stolen throughout: count every job rather than none.
        (rl_secs, rl_steps, enu_us) = (all_rl_secs.clone(), all_rl_steps, all_enu_us.clone());
        enu_tails.push(crate::stats::tail(&crate::stats::sorted(&all_enu_us)));
    }
    ctx.log("mining done");
    report.check(rl_hashes.windows(2).all(|w| w[0] == w[1]), || {
        format!("RLMiner rule sets differ between jobs with one seed: {rl_hashes:x?}")
    });
    report.check(!rl_rules.is_empty(), || "RLMiner mined no rule".into());
    report.check(!enu_rules.is_empty(), || "EnuMiner mined no rule".into());
    report.e2e.insert("job_s", median_of(&rl_secs));
    report.e2e.insert("throughput_per_s", median_of(&rl_steps));
    let p50 = median_of(&enu_us);
    let tail = median_of(&enu_tails.iter().map(|t| t.value).collect::<Vec<_>>());
    report.e2e.insert("p50_us", p50);
    report.layer.insert("latency.tail_us", tail);
    report.layer.insert("quality.f1", f1_of(&rl_rules, &s));
    report.layer.insert("enuminer.f1", f1_of(&enu_rules, &s));
    println!(
        "RLMiner {RL_STEPS} steps + inference: {:.3} s (median of {} jobs clean of steal, all: {all_rl_secs:.3?}); EnuMiner budget {ENU_BUDGET}: p50 {p50:.0} us over {} calls, tail {tail:.0} us (median of {} stretches' p{:?})",
        median_of(&rl_secs),
        rl_secs.len(),
        enu_us.len(),
        enu_tails.len(),
        enu_tails.iter().map(|t| t.level).collect::<Vec<_>>()
    );
    let calls = (all_rl_secs.len() + all_enu_us.len()) as u64;
    report.ops.push((
        "mine",
        format!(
            "closed loop, 1 thread: {} RLMiner jobs, {} EnuMiner calls",
            all_rl_secs.len(),
            all_enu_us.len()
        ),
        crate::load::OpCount {
            attempted: calls,
            succeeded: calls,
            failed: 0,
            refused: 0,
        },
    ));
    report.e2e.insert(
        "peak_rss_mib",
        crate::server::peak_rss_mib(std::process::id())?,
    );

    if ctx.trace {
        traced(ctx, report, &s)?;
    }
    Ok(())
}

/// The training loop of `RlMiner::train_for`, rebuilt from the layers'
/// public calls so each call can be timed. Returns the rules' count of
/// steps taken, episodes, learn steps and fresh evaluations.
fn replay_training(s: &Scenario, seed: u64, tr: &mut Tracer) -> (usize, usize, usize, usize) {
    let c = rl_config(s, seed);
    let encoder = StateEncoder::new(&s.task, c.condition_space);
    let mut agent = DqnAgent::new(DqnConfig {
        state_dim: encoder.state_dim(),
        action_dim: encoder.action_dim(),
        hidden: c.hidden.clone(),
        lr: c.lr,
        gamma: c.gamma,
        epsilon_start: c.epsilon.0,
        epsilon_end: c.epsilon.1,
        epsilon_decay_steps: c.epsilon.2,
        batch_size: c.batch_size,
        replay_capacity: c.replay_capacity,
        target_sync_every: c.target_sync_every,
        learn_start: c.batch_size * 2,
        double_dqn: c.double_dqn,
        prioritized_replay: c.prioritized_replay,
        seed: c.seed,
    });
    let reward = RewardConfig {
        theta: c.theta,
        low_support_penalty: c.low_support_penalty,
        shaping: c.shaping,
        global_mask: c.global_mask,
        certainty_stop: c.certainty_stop,
        ..RewardConfig::normalized(c.support_threshold, s.task.input().num_rows())
    };
    let mut env = MinerEnv::with_threads(&s.task, &encoder, reward, c.k, c.threads);
    let (mut steps, mut episodes) = (0usize, 0usize);
    'train: while steps < RL_STEPS {
        env.reset();
        let mut episode_steps = 0;
        loop {
            let root = tr.begin("step", steps as u64);
            let state = tr.time("rlminer.state", steps as u64, || env.state());
            let mask = tr.time("rlminer.mask", steps as u64, || env.mask());
            tr.time("rl.q_values", steps as u64, || {
                std::hint::black_box(agent.q_values(&state))
            });
            let action = tr.time("rl.select_action", steps as u64, || {
                agent.select_action(&state, &mask)
            });
            let out = tr.time("rlminer.env_step", steps as u64, || env.step(action));
            episode_steps += 1;
            let next = if out.done {
                None
            } else {
                let st = tr.time("rlminer.state", steps as u64, || env.state());
                let mk = tr.time("rlminer.mask", steps as u64, || env.mask());
                Some((st, mk))
            };
            tr.time("rl.observe", steps as u64, || {
                agent.observe(Transition {
                    state,
                    action,
                    reward: out.reward as f32,
                    next,
                })
            });
            tr.time("rl.learn", steps as u64, || agent.learn());
            tr.end(root);
            steps += 1;
            if out.done || episode_steps >= c.max_episode_steps {
                episodes += 1;
                break;
            }
            if steps >= RL_STEPS {
                break 'train;
            }
        }
    }
    (
        steps,
        episodes,
        agent.learn_steps(),
        env.fresh_evaluations(),
    )
}

fn traced(ctx: &Ctx, report: &mut Report, s: &Scenario) -> Result<(), String> {
    // Untraced, then traced: the difference is the tracing overhead.
    let t = Instant::now();
    replay_training(s, ctx.seed, &mut Tracer::new(false));
    let untraced = t.elapsed().as_secs_f64();
    let mut tr = Tracer::new(true);
    let t = Instant::now();
    let (steps, episodes, learn_steps, fresh) = replay_training(s, ctx.seed, &mut tr);
    let traced = t.elapsed().as_secs_f64();

    let enu = tr.begin("enuminer", 0);
    let r = tr.time("enuminer.mine", 0, || {
        er_enuminer::mine(&s.task, enu_config(s))
    });
    let rules: Vec<EditingRule> = r.rules.iter().map(|(x, _)| x.clone()).collect();
    tr.time("rules.apply", 0, || {
        std::hint::black_box(apply_rules(&s.task, &rules))
    });
    tr.end(enu);

    let b = breakdown(tr.spans());
    let l = &mut report.layer;
    l.insert("rl.learn_us", b.mean_us("rl.learn"));
    l.insert("rl.q_values_us", b.mean_us("rl.q_values"));
    l.insert("rl.learn_steps", learn_steps as f64);
    l.insert("rlminer.env_step_us", b.mean_us("rlminer.env_step"));
    l.insert("rlminer.mask_us", b.mean_us("rlminer.mask"));
    l.insert("rlminer.steps", steps as f64);
    l.insert("rlminer.episodes", episodes as f64);
    l.insert("rlminer.fresh_evaluations", fresh as f64);
    l.insert("enuminer.evaluated", r.evaluated as f64);
    l.insert(
        "enuminer.us_per_eval",
        b.mean_us("enuminer.mine") / r.evaluated.max(1) as f64,
    );
    l.insert("rules.rescore_us", b.mean_us("rules.apply"));
    crate::traced::finish(ctx, report, &tr, &b, traced / untraced - 1.0)
}
