//! Mutant generation (paper Figs. 4–5).
//!
//! The original toolset generates, for every test dataset, a C source
//! file containing a single *fault placeholder* — the hypercall under
//! test invoked with the dataset — which is compiled into the test
//! partition image. We provide both forms:
//!
//! * [`MutantSpec::emit_c_source`] emits that C source (the artefact of
//!   Fig. 5's "Mutant Source Generator" stage), useful for inspection and
//!   for cross-compiling against a real XtratuM SDK;
//! * [`MutantGuest`] is the directly executable form for the simulated
//!   testbed: a guest program that runs the testbed prologue once per
//!   partition boot, then invokes the fault placeholder once per slot and
//!   records each outcome.

use crate::observe::Invocation;
use crate::suite::TestCase;
use xtratum::guest::{GuestProgram, GuestSet, PartitionApi};
use xtratum::hypercall::RawHypercall;
use xtratum::types::type_info;

/// A generated mutant: one hypercall + one dataset.
#[derive(Debug, Clone)]
pub struct MutantSpec {
    /// The test case this mutant embodies.
    pub case: TestCase,
}

impl MutantSpec {
    /// Wraps a test case.
    pub fn new(case: TestCase) -> Self {
        MutantSpec { case }
    }

    /// Emits the C fault-placeholder source the original toolset would
    /// compile into the test partition (Fig. 5).
    pub fn emit_c_source(&self) -> String {
        let def = self.case.hypercall.def();
        let mut args = Vec::new();
        for (i, p) in def.params.iter().enumerate() {
            let v = &self.case.dataset[i];
            let info = type_info(p.ty);
            let lit = match info {
                Some(t) if t.signed && t.bits == 64 => format!("{}LL", v.raw as i64),
                Some(t) if t.signed => format!("{}", v.raw as u32 as i32),
                _ => format!("0x{:x}U", v.as_u32()),
            };
            if p.pointer {
                args.push(format!("({} *)({})", p.ty, lit));
            } else {
                args.push(format!("({})({})", p.ty, lit));
            }
        }
        let call = format!("{}({})", def.name, args.join(", "));
        format!(
            "/* Auto-generated fault placeholder.\n\
             \x20* Suite: {name}  dataset #{idx}\n\
             \x20* Generated by skrt (data type fault model toolset).\n\
             \x20*/\n\
             #include <xm.h>\n\
             #include \"test_partition.h\"\n\
             \n\
             void TestPlaceholder(void)\n\
             {{\n\
             \x20   xm_s32_t ret;\n\
             \n\
             \x20   tp_log_invocation_start();\n\
             \x20   ret = {call};\n\
             \x20   tp_log_return_code(ret);\n\
             }}\n",
            name = def.name,
            idx = self.case.case_index,
            call = call,
        )
    }
}

/// The executable mutant guest: prologue + one fault placeholder per
/// slot. Re-runs the prologue whenever the partition was reset (cold or
/// warm), mirroring a real partition image re-entering `PartitionMain`.
///
/// The guest is the only writer of its invocation log, so the log is a
/// plain `Vec` owned by the guest — no lock on the per-slot path. The
/// executor recovers it after the run with [`take_invocations`].
pub struct MutantGuest {
    hc: RawHypercall,
    prologue: fn(&mut PartitionApi<'_>),
    results: Vec<Invocation>,
    last_boot_count: Option<u32>,
    /// Extra execution time burned per slot before the test call,
    /// emulating residual application work (0 for pure injection).
    pub workload_us: u64,
    /// Optional state-setting step run before every invocation — the
    /// vehicle for phantom parameters and stress scenarios (paper §V).
    pub pre_call: Option<fn(&mut PartitionApi<'_>)>,
}

impl MutantGuest {
    /// Creates a mutant guest.
    pub fn new(hc: RawHypercall, prologue: fn(&mut PartitionApi<'_>)) -> Self {
        MutantGuest {
            hc,
            prologue,
            results: Vec::new(),
            last_boot_count: None,
            workload_us: 0,
            pre_call: None,
        }
    }

    /// Attaches a per-invocation state-setting step.
    pub fn with_pre_call(mut self, pre: fn(&mut PartitionApi<'_>)) -> Self {
        self.pre_call = Some(pre);
        self
    }

    /// Takes the recorded invocations, leaving the log empty.
    pub fn take_invocations(&mut self) -> Vec<Invocation> {
        std::mem::take(&mut self.results)
    }
}

/// Recovers the invocation log from the mutant installed in partition
/// `part` of a finished run's guest set. Empty if the partition holds a
/// different guest type.
pub fn take_invocations(guests: &mut GuestSet, part: u32) -> Vec<Invocation> {
    guests
        .get_mut(part)
        .and_then(|g| g.as_any_mut())
        .and_then(|a| a.downcast_mut::<MutantGuest>())
        .map(|m| m.take_invocations())
        .unwrap_or_default()
}

impl GuestProgram for MutantGuest {
    fn run_slot(&mut self, api: &mut PartitionApi<'_>) {
        // Re-enter PartitionMain after any partition reset.
        let boot = api.boot_count();
        if self.last_boot_count != Some(boot) {
            self.last_boot_count = Some(boot);
            (self.prologue)(api);
            if api.ended().is_some() {
                return;
            }
        }
        if self.workload_us > 0 {
            api.consume(self.workload_us);
        }
        if let Some(pre) = self.pre_call {
            pre(api);
            if api.ended().is_some() {
                return;
            }
        }
        let hc = self.hc;
        let outcome = match api.hypercall(&hc) {
            Ok(code) => Invocation::Returned(code),
            Err(kind) => Invocation::NoReturn(kind),
        };
        self.results.push(outcome);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::TestValue;
    use xtratum::hypercall::HypercallId;

    fn case(id: HypercallId, vals: Vec<TestValue>) -> TestCase {
        TestCase { hypercall: id, dataset: vals, suite_index: 0, case_index: 7 }
    }

    #[test]
    fn c_source_for_set_timer_matches_abi_types() {
        let c = case(
            HypercallId::SetTimer,
            vec![
                TestValue::scalar(0),
                TestValue::scalar(1),
                TestValue::labelled(i64::MIN as u64, "LLONG_MIN"),
            ],
        );
        let src = MutantSpec::new(c).emit_c_source();
        assert!(src.contains("#include <xm.h>"), "{src}");
        assert!(
            src.contains("XM_set_timer((xm_u32_t)(0x0U), (xmTime_t)(1LL), (xmTime_t)(-9223372036854775808LL))"),
            "{src}"
        );
        assert!(src.contains("dataset #7"));
        assert!(src.contains("tp_log_return_code(ret)"));
    }

    #[test]
    fn c_source_casts_pointers() {
        let c = case(
            HypercallId::Multicall,
            vec![TestValue::bad_ptr(0, "NULL"), TestValue::good_ptr(0x4010_4000, "VALID")],
        );
        let src = MutantSpec::new(c).emit_c_source();
        assert!(
            src.contains("XM_multicall((xmAddress_t *)(0x0U), (xmAddress_t *)(0x40104000U))"),
            "{src}"
        );
    }

    #[test]
    fn c_source_signed_32bit() {
        let c = case(HypercallId::HaltPartition, vec![TestValue::scalar(-1i32 as u32 as u64)]);
        let src = MutantSpec::new(c).emit_c_source();
        assert!(src.contains("XM_halt_partition((xm_s32_t)(-1))"), "{src}");
    }

    #[test]
    fn parameterless_placeholder() {
        let c = case(HypercallId::HaltSystem, vec![]);
        let src = MutantSpec::new(c).emit_c_source();
        assert!(src.contains("XM_halt_system()"), "{src}");
    }
}
