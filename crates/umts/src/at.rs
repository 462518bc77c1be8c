//! The modem's AT command interpreter.
//!
//! Reproduces the dialogue that `comgt` (registration) and `wvdial`
//! (dial-up) hold with the 3G card before PPP starts. Two device profiles
//! mirror the cards the paper supports — the Option Globetrotter GT+ 3G
//! (`nozomi` driver) and the Huawei E620 (`usbserial`) — differing in
//! command latency and an initialization quirk of the nozomi firmware.
//!
//! The modem is a pure state machine: feed it command lines with
//! [`Modem::input_line`], collect due outputs with [`Modem::poll`], and use
//! [`Modem::next_wakeup`] to know when to poll again.

use std::collections::VecDeque;

use umtslab_sim::time::{Duration, Instant};

/// Supported 3G cards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceModel {
    /// Option Globetrotter GT+ 3G (PC-Card, nozomi driver).
    OptionGlobetrotterGt3G,
    /// Huawei E620 (USB, usbserial driver).
    HuaweiE620,
}

/// Timing profile of a device.
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// Which card.
    pub model: DeviceModel,
    /// Processing delay for ordinary commands.
    pub command_delay: Duration,
    /// Additional settling delay before the first command after power-on
    /// (the nozomi firmware needs one; the Huawei does not).
    pub init_quirk_delay: Duration,
}

impl DeviceProfile {
    /// The Option Globetrotter GT+ 3G profile.
    pub fn option_globetrotter() -> DeviceProfile {
        DeviceProfile {
            model: DeviceModel::OptionGlobetrotterGt3G,
            command_delay: Duration::from_millis(150),
            init_quirk_delay: Duration::from_millis(1200),
        }
    }

    /// The Huawei E620 profile.
    pub fn huawei_e620() -> DeviceProfile {
        DeviceProfile {
            model: DeviceModel::HuaweiE620,
            command_delay: Duration::from_millis(80),
            init_quirk_delay: Duration::ZERO,
        }
    }

    /// Looks up a built-in profile by its registry key (the names
    /// declarative experiment packs use; see [`DEVICE_PRESETS`]).
    pub fn by_preset(key: &str) -> Option<DeviceProfile> {
        match key {
            "option_globetrotter" => Some(DeviceProfile::option_globetrotter()),
            "huawei_e620" => Some(DeviceProfile::huawei_e620()),
            _ => None,
        }
    }
}

/// Registry keys of the built-in device presets, in
/// [`DeviceProfile::by_preset`] order.
pub const DEVICE_PRESETS: [&str; 2] = ["option_globetrotter", "huawei_e620"];

/// What the modem "sees" of the operator network on the radio side.
#[derive(Debug, Clone)]
pub struct NetworkSignal {
    /// Operator display name (`AT+COPS?`).
    pub operator_name: String,
    /// The APN the operator accepts.
    pub apn: String,
    /// Time from power-on to network registration.
    pub registration_delay: Duration,
    /// The network refuses registration (roaming misconfig, barred SIM).
    pub registration_denied: bool,
    /// Time from `ATD` to `CONNECT`.
    pub dial_delay: Duration,
    /// The network rejects the data call.
    pub dial_refused: bool,
    /// The SIM requires a PIN that has not been entered.
    pub sim_pin_locked: bool,
}

impl NetworkSignal {
    /// A permissive default signal for tests.
    pub fn test_default() -> NetworkSignal {
        NetworkSignal {
            operator_name: "SIM-OP".to_string(),
            apn: "internet".to_string(),
            registration_delay: Duration::from_secs(2),
            registration_denied: false,
            dial_delay: Duration::from_secs(3),
            dial_refused: false,
            sim_pin_locked: false,
        }
    }
}

/// Registration status, as reported by `+CREG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegStatus {
    /// Not registered, not searching (code 0).
    Idle,
    /// Registered on the home network (code 1).
    Registered,
    /// Searching (code 2).
    Searching,
    /// Registration denied (code 3).
    Denied,
}

impl RegStatus {
    fn code(self) -> u8 {
        match self {
            RegStatus::Idle => 0,
            RegStatus::Registered => 1,
            RegStatus::Searching => 2,
            RegStatus::Denied => 3,
        }
    }
}

/// Modem mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModemMode {
    /// Accepting AT commands.
    Command,
    /// A data call is being set up.
    Dialing,
    /// Connected: the serial line carries PPP frames.
    Data,
}

/// Outputs produced by the modem toward the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModemOutput {
    /// A response line (`OK`, `ERROR`, `+CREG: 0,1`, ...).
    Line(String),
    /// The modem switched to data mode (follows the `CONNECT` line).
    EnterDataMode,
    /// The modem left data mode (carrier lost or `ATH`).
    ExitDataMode,
}

#[derive(Debug)]
enum Pending {
    Respond(Vec<String>),
    FinishDial,
}

/// The AT command interpreter.
#[derive(Debug)]
pub struct Modem {
    profile: DeviceProfile,
    signal: NetworkSignal,
    mode: ModemMode,
    reg: RegStatus,
    registered_at: Option<Instant>,
    echo: bool,
    /// APN configured by `AT+CGDCONT`, if any.
    configured_apn: Option<String>,
    pending: VecDeque<(Instant, Pending)>,
    first_command_seen: bool,
    powered_on_at: Instant,
    /// Firmware hard-hang: the modem ignores all input and produces no
    /// output until it is power-cycled (a fresh [`Modem::power_on`]).
    hung: bool,
    /// Commands the modem will silently swallow (lost on the serial bus),
    /// modelling a transient AT-command timeout.
    swallow_commands: u32,
}

impl Modem {
    /// Powers on a modem at `now`. Registration proceeds in the
    /// background and completes after the signal's registration delay.
    pub fn power_on(profile: DeviceProfile, signal: NetworkSignal, now: Instant) -> Modem {
        let registered_at =
            if signal.registration_denied { None } else { Some(now + signal.registration_delay) };
        Modem {
            profile,
            signal,
            mode: ModemMode::Command,
            reg: RegStatus::Searching,
            registered_at,
            echo: true,
            configured_apn: None,
            pending: VecDeque::new(),
            first_command_seen: false,
            powered_on_at: now,
            hung: false,
            swallow_commands: 0,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> ModemMode {
        self.mode
    }

    /// Current registration status (updated lazily on poll/input).
    pub fn registration(&self) -> RegStatus {
        self.reg
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Hard-hangs the modem firmware: from now on every input byte is
    /// swallowed and no output is ever produced. Only a power cycle — a
    /// fresh [`Modem::power_on`] replacing this instance — recovers it.
    /// This mirrors the nozomi/usbserial lockups the paper's management
    /// scripts guard against with watchdog resets.
    pub fn hang(&mut self) {
        self.hung = true;
        self.pending.clear();
    }

    /// True if the firmware is hung (see [`Modem::hang`]).
    pub fn is_hung(&self) -> bool {
        self.hung
    }

    /// Arranges for the next command line to be silently lost, as if the
    /// serial bus dropped it: the host sees no response at all and must
    /// rely on its own timeout.
    pub fn swallow_next_command(&mut self) {
        self.swallow_commands += 1;
    }

    /// Detaches the modem from the operator network (coverage loss or
    /// network-side detach): registration falls back to searching and any
    /// data call drops. Re-registration completes after the signal's
    /// registration delay.
    pub fn detach(&mut self, now: Instant) {
        self.reg = RegStatus::Searching;
        if !self.signal.registration_denied {
            self.registered_at = Some(now + self.signal.registration_delay);
        }
        self.pending.retain(|(_, p)| !matches!(p, Pending::FinishDial));
        if self.mode != ModemMode::Command {
            self.mode = ModemMode::Command;
            if !self.hung {
                self.respond_at(now, vec!["NO CARRIER".into()]);
            }
        }
    }

    /// When the modem next needs a poll.
    pub fn next_wakeup(&self) -> Option<Instant> {
        if self.hung {
            return None;
        }
        let pend = self.pending.front().map(|&(at, _)| at);
        let reg = match (self.reg, self.registered_at) {
            (RegStatus::Searching, Some(at)) => Some(at),
            _ => None,
        };
        match (pend, reg) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Feeds one command line from the host (terminators already
    /// stripped). Ignored in data mode except for the `+++` escape.
    pub fn input_line(&mut self, now: Instant, line: &str) {
        if self.hung {
            return;
        }
        self.advance_registration(now);
        let line = line.trim();
        if self.swallow_commands > 0 && self.mode != ModemMode::Data {
            self.swallow_commands -= 1;
            return;
        }
        if self.mode == ModemMode::Data {
            if line == "+++" {
                self.mode = ModemMode::Command;
                self.respond_at(now + self.profile.command_delay, vec!["OK".into()]);
            }
            return;
        }
        if self.mode == ModemMode::Dialing {
            // Any command while dialing aborts the call attempt.
            self.pending.retain(|(_, p)| !matches!(p, Pending::FinishDial));
            self.mode = ModemMode::Command;
            self.respond_at(now + self.profile.command_delay, vec!["NO CARRIER".into()]);
            return;
        }

        let mut delay = self.profile.command_delay;
        if !self.first_command_seen {
            self.first_command_seen = true;
            // The nozomi firmware needs settling time after power-on.
            let quirk_until = self.powered_on_at + self.profile.init_quirk_delay;
            if quirk_until > now {
                delay += quirk_until.duration_since(now);
            }
        }

        let upper = line.to_ascii_uppercase();
        let responses = self.execute(now, &upper, line);
        if let Some(resp) = responses {
            self.respond_at(now + delay, resp);
        }
    }

    /// Collects outputs due by `now`.
    pub fn poll(&mut self, now: Instant) -> Vec<ModemOutput> {
        if self.hung {
            return Vec::new();
        }
        self.advance_registration(now);
        let mut out = Vec::new();
        while let Some(&(at, _)) = self.pending.front() {
            if at > now {
                break;
            }
            let (_, action) = self.pending.pop_front().expect("front exists");
            match action {
                Pending::Respond(lines) => {
                    out.extend(lines.into_iter().map(ModemOutput::Line));
                }
                Pending::FinishDial => {
                    if self.dial_should_succeed() {
                        self.mode = ModemMode::Data;
                        out.push(ModemOutput::Line("CONNECT".into()));
                        out.push(ModemOutput::EnterDataMode);
                    } else {
                        self.mode = ModemMode::Command;
                        out.push(ModemOutput::Line("NO CARRIER".into()));
                    }
                }
            }
        }
        out
    }

    /// Tears down a data call from the network side (carrier loss).
    pub fn drop_carrier(&mut self, now: Instant) {
        if self.mode == ModemMode::Data {
            self.mode = ModemMode::Command;
            if self.hung {
                return;
            }
            self.respond_at(now, vec!["NO CARRIER".into()]);
            self.pending.push_back((now, Pending::Respond(vec![])));
            // ExitDataMode is synthesized by poll consumers through mode().
        }
    }

    fn dial_should_succeed(&self) -> bool {
        if self.signal.dial_refused || self.reg != RegStatus::Registered {
            return false;
        }
        match &self.configured_apn {
            Some(apn) => apn == &self.signal.apn,
            // Some operators accept a default APN when none is configured.
            None => false,
        }
    }

    fn advance_registration(&mut self, now: Instant) {
        if self.signal.registration_denied {
            self.reg = RegStatus::Denied;
            return;
        }
        if self.reg == RegStatus::Searching {
            if let Some(at) = self.registered_at {
                if now >= at {
                    self.reg = RegStatus::Registered;
                }
            }
        }
    }

    fn respond_at(&mut self, at: Instant, lines: Vec<String>) {
        // Keep FIFO order even if an earlier response is still pending.
        let at = self.pending.back().map_or(at, |&(prev, _)| at.max(prev));
        self.pending.push_back((at, Pending::Respond(lines)));
    }

    fn execute(&mut self, now: Instant, upper: &str, raw: &str) -> Option<Vec<String>> {
        // Echo handling is left to the host side; we only interpret.
        if upper == "AT" || upper == "ATZ" {
            return Some(vec!["OK".into()]);
        }
        if upper == "ATE0" {
            self.echo = false;
            return Some(vec!["OK".into()]);
        }
        if upper == "ATE1" {
            self.echo = true;
            return Some(vec!["OK".into()]);
        }
        if upper == "ATH" {
            return Some(vec!["OK".into()]);
        }
        if upper == "AT+CPIN?" {
            return Some(if self.signal.sim_pin_locked {
                vec!["+CPIN: SIM PIN".into(), "OK".into()]
            } else {
                vec!["+CPIN: READY".into(), "OK".into()]
            });
        }
        if upper == "AT+CREG?" {
            return Some(vec![format!("+CREG: 0,{}", self.reg.code()), "OK".into()]);
        }
        if upper == "AT+CSQ" {
            // Fixed plausible signal quality.
            return Some(vec!["+CSQ: 18,99".into(), "OK".into()]);
        }
        if upper == "AT+COPS?" {
            return Some(if self.reg == RegStatus::Registered {
                vec![format!("+COPS: 0,0,\"{}\",2", self.signal.operator_name), "OK".into()]
            } else {
                vec!["+COPS: 0".into(), "OK".into()]
            });
        }
        if upper.starts_with("AT+CGDCONT=") {
            // AT+CGDCONT=1,"IP","apn.example"
            let args = &raw["AT+CGDCONT=".len()..];
            let parts: Vec<&str> = args.split(',').collect();
            if parts.len() >= 3 {
                let apn = parts[2].trim().trim_matches('"');
                self.configured_apn = Some(apn.to_string());
                return Some(vec!["OK".into()]);
            }
            return Some(vec!["ERROR".into()]);
        }
        if upper.starts_with("ATD") {
            // Data call: ATD*99# / ATD*99***1#
            if self.reg != RegStatus::Registered {
                return Some(vec!["NO CARRIER".into()]);
            }
            self.mode = ModemMode::Dialing;
            let at = now + self.signal.dial_delay;
            self.pending.push_back((at, Pending::FinishDial));
            return None; // response comes from FinishDial
        }
        Some(vec!["ERROR".into()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostile::hostile_stream;
    use crate::serial::{LineAssembler, MAX_LINE_LEN};
    use umtslab_sim::rng::SimRng;

    fn modem() -> Modem {
        Modem::power_on(DeviceProfile::huawei_e620(), NetworkSignal::test_default(), Instant::ZERO)
    }

    fn drain_lines(m: &mut Modem, now: Instant) -> Vec<String> {
        m.poll(now)
            .into_iter()
            .filter_map(|o| match o {
                ModemOutput::Line(l) => Some(l),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn basic_at_ok() {
        let mut m = modem();
        m.input_line(Instant::ZERO, "AT");
        assert!(drain_lines(&mut m, Instant::from_millis(10)).is_empty());
        assert_eq!(drain_lines(&mut m, Instant::from_millis(80)), vec!["OK"]);
    }

    #[test]
    fn unknown_command_errors() {
        let mut m = modem();
        m.input_line(Instant::ZERO, "AT+BOGUS");
        assert_eq!(drain_lines(&mut m, Instant::from_secs(1)), vec!["ERROR"]);
    }

    #[test]
    fn registration_progresses_over_time() {
        let mut m = modem();
        m.input_line(Instant::ZERO, "AT+CREG?");
        let r = drain_lines(&mut m, Instant::from_millis(100));
        assert_eq!(r, vec!["+CREG: 0,2", "OK"]);

        // After the registration delay (2 s) the modem reports registered.
        m.input_line(Instant::from_secs(3), "AT+CREG?");
        let r = drain_lines(&mut m, Instant::from_secs(4));
        assert_eq!(r, vec!["+CREG: 0,1", "OK"]);
    }

    #[test]
    fn denied_registration_reports_code_3() {
        let mut sig = NetworkSignal::test_default();
        sig.registration_denied = true;
        let mut m = Modem::power_on(DeviceProfile::huawei_e620(), sig, Instant::ZERO);
        m.input_line(Instant::from_secs(10), "AT+CREG?");
        let r = drain_lines(&mut m, Instant::from_secs(11));
        assert_eq!(r, vec!["+CREG: 0,3", "OK"]);
        assert_eq!(m.registration(), RegStatus::Denied);
    }

    #[test]
    fn sim_pin_states() {
        let mut m = modem();
        m.input_line(Instant::ZERO, "AT+CPIN?");
        assert_eq!(drain_lines(&mut m, Instant::from_secs(1)), vec!["+CPIN: READY", "OK"]);
        let mut sig = NetworkSignal::test_default();
        sig.sim_pin_locked = true;
        let mut m = Modem::power_on(DeviceProfile::huawei_e620(), sig, Instant::ZERO);
        m.input_line(Instant::ZERO, "AT+CPIN?");
        assert_eq!(drain_lines(&mut m, Instant::from_secs(1)), vec!["+CPIN: SIM PIN", "OK"]);
    }

    #[test]
    fn cops_reports_operator_when_registered() {
        let mut m = modem();
        m.input_line(Instant::from_secs(3), "AT+COPS?");
        let r = drain_lines(&mut m, Instant::from_secs(4));
        assert_eq!(r[0], "+COPS: 0,0,\"SIM-OP\",2");
    }

    #[test]
    fn full_dial_sequence_connects() {
        let mut m = modem();
        let t = Instant::from_secs(3); // registered by now
        m.input_line(t, "AT+CGDCONT=1,\"IP\",\"internet\"");
        assert_eq!(drain_lines(&mut m, t + Duration::from_secs(1)), vec!["OK"]);
        m.input_line(t + Duration::from_secs(1), "ATD*99***1#");
        assert_eq!(m.mode(), ModemMode::Dialing);
        // Dial takes 3 s.
        let out = m.poll(t + Duration::from_secs(5));
        assert_eq!(out, vec![ModemOutput::Line("CONNECT".into()), ModemOutput::EnterDataMode,]);
        assert_eq!(m.mode(), ModemMode::Data);
    }

    #[test]
    fn dial_with_wrong_apn_fails() {
        let mut m = modem();
        let t = Instant::from_secs(3);
        m.input_line(t, "AT+CGDCONT=1,\"IP\",\"wrong.apn\"");
        let _ = drain_lines(&mut m, t + Duration::from_secs(1));
        m.input_line(t + Duration::from_secs(1), "ATD*99#");
        let out = drain_lines(&mut m, t + Duration::from_secs(5));
        assert_eq!(out, vec!["NO CARRIER"]);
        assert_eq!(m.mode(), ModemMode::Command);
    }

    #[test]
    fn dial_without_apn_fails() {
        let mut m = modem();
        m.input_line(Instant::from_secs(3), "ATD*99#");
        let out = drain_lines(&mut m, Instant::from_secs(10));
        assert_eq!(out, vec!["NO CARRIER"]);
    }

    #[test]
    fn dial_before_registration_fails_fast() {
        let mut m = modem();
        m.input_line(Instant::ZERO, "ATD*99#"); // still searching
        let out = drain_lines(&mut m, Instant::from_secs(1));
        assert_eq!(out, vec!["NO CARRIER"]);
    }

    #[test]
    fn plus_plus_plus_escapes_data_mode() {
        let mut m = modem();
        let t = Instant::from_secs(3);
        m.input_line(t, "AT+CGDCONT=1,\"IP\",\"internet\"");
        let _ = drain_lines(&mut m, t + Duration::from_secs(1));
        m.input_line(t + Duration::from_secs(1), "ATD*99#");
        let _ = m.poll(t + Duration::from_secs(5));
        assert_eq!(m.mode(), ModemMode::Data);
        m.input_line(t + Duration::from_secs(6), "+++");
        assert_eq!(m.mode(), ModemMode::Command);
        assert_eq!(drain_lines(&mut m, t + Duration::from_secs(7)), vec!["OK"]);
    }

    #[test]
    fn nozomi_quirk_delays_first_command_only() {
        let mut m = Modem::power_on(
            DeviceProfile::option_globetrotter(),
            NetworkSignal::test_default(),
            Instant::ZERO,
        );
        m.input_line(Instant::ZERO, "AT");
        // First response waits for the 1.2 s settling + 150 ms command time.
        assert!(drain_lines(&mut m, Instant::from_millis(1200)).is_empty());
        assert_eq!(drain_lines(&mut m, Instant::from_millis(1350)), vec!["OK"]);
        // Second command only pays the command delay.
        m.input_line(Instant::from_secs(2), "AT");
        assert_eq!(
            drain_lines(&mut m, Instant::from_secs(2) + Duration::from_millis(150)),
            vec!["OK"]
        );
    }

    #[test]
    fn command_during_dial_aborts() {
        let mut m = modem();
        let t = Instant::from_secs(3);
        m.input_line(t, "AT+CGDCONT=1,\"IP\",\"internet\"");
        let _ = drain_lines(&mut m, t + Duration::from_secs(1));
        m.input_line(t + Duration::from_secs(1), "ATD*99#");
        m.input_line(t + Duration::from_secs(2), "ATH"); // abort mid-dial
        let out = drain_lines(&mut m, t + Duration::from_secs(10));
        assert_eq!(out, vec!["NO CARRIER"]);
        assert_eq!(m.mode(), ModemMode::Command);
    }

    #[test]
    fn next_wakeup_tracks_pending_and_registration() {
        let mut m = modem();
        // Freshly powered: wakeup at registration time.
        assert_eq!(m.next_wakeup(), Some(Instant::from_secs(2)));
        m.input_line(Instant::ZERO, "AT");
        assert_eq!(m.next_wakeup(), Some(Instant::from_millis(80)));
        let _ = m.poll(Instant::from_millis(80));
        assert_eq!(m.next_wakeup(), Some(Instant::from_secs(2)));
        let _ = m.poll(Instant::from_secs(2));
        assert_eq!(m.next_wakeup(), None);
    }

    #[test]
    fn hung_modem_is_dead_until_power_cycle() {
        let mut m = modem();
        m.hang();
        assert!(m.is_hung());
        m.input_line(Instant::ZERO, "AT");
        assert!(m.poll(Instant::from_secs(10)).is_empty());
        assert_eq!(m.next_wakeup(), None);
        // A power cycle (fresh power_on) recovers.
        let mut m = Modem::power_on(
            DeviceProfile::huawei_e620(),
            NetworkSignal::test_default(),
            Instant::from_secs(10),
        );
        assert!(!m.is_hung());
        m.input_line(Instant::from_secs(10), "AT");
        assert_eq!(drain_lines(&mut m, Instant::from_secs(11)), vec!["OK"]);
    }

    #[test]
    fn swallowed_command_gets_no_response() {
        let mut m = modem();
        m.swallow_next_command();
        m.input_line(Instant::ZERO, "AT");
        assert!(drain_lines(&mut m, Instant::from_secs(1)).is_empty());
        // The next command is answered normally.
        m.input_line(Instant::from_secs(1), "AT");
        assert_eq!(drain_lines(&mut m, Instant::from_secs(2)), vec!["OK"]);
    }

    #[test]
    fn detach_drops_call_and_restarts_registration() {
        let mut m = modem();
        let t = Instant::from_secs(3);
        m.input_line(t, "AT+CGDCONT=1,\"IP\",\"internet\"");
        let _ = drain_lines(&mut m, t + Duration::from_secs(1));
        m.input_line(t + Duration::from_secs(1), "ATD*99#");
        let _ = m.poll(t + Duration::from_secs(5));
        assert_eq!(m.mode(), ModemMode::Data);
        let detach_at = t + Duration::from_secs(6);
        m.detach(detach_at);
        assert_eq!(m.mode(), ModemMode::Command);
        assert_eq!(drain_lines(&mut m, detach_at), vec!["NO CARRIER"]);
        assert_eq!(m.registration(), RegStatus::Searching);
        // Re-registration completes after the signal's registration delay.
        let _ = m.poll(detach_at + Duration::from_secs(2));
        assert_eq!(m.registration(), RegStatus::Registered);
    }

    #[test]
    fn responses_stay_fifo() {
        let mut m = modem();
        m.input_line(Instant::ZERO, "AT");
        m.input_line(Instant::ZERO, "AT+CREG?");
        let lines = drain_lines(&mut m, Instant::from_secs(1));
        assert_eq!(lines, vec!["OK", "+CREG: 0,2", "OK"]);
    }

    #[test]
    fn hostile_input_never_panics_and_leaves_the_modem_answering() {
        for seed in 0..32 {
            let mut rng = SimRng::seed_from_u64(seed);
            let device = if seed % 2 == 0 {
                DeviceProfile::huawei_e620()
            } else {
                DeviceProfile::option_globetrotter()
            };
            let mut m = Modem::power_on(device, NetworkSignal::test_default(), Instant::ZERO);
            let mut asm = LineAssembler::new();
            let stream = hostile_stream(&mut rng, 400);
            let mut now = Instant::ZERO;
            for chunk in stream.chunks(rng.uniform_u64(1, 64) as usize) {
                for line in asm.feed(chunk) {
                    m.input_line(now, &line);
                }
                assert!(asm.pending() <= MAX_LINE_LEN, "seed {seed}");
                let _ = m.poll(now);
                now += Duration::from_millis(rng.uniform_u64(0, 50));
            }
            assert!(asm.errors > 0, "seed {seed}: the stream reaches the line cap");
            // Whatever mode the noise left, `+++` returns to command mode
            // (or is rejected there) and the next command is answered.
            now += Duration::from_secs(60);
            let _ = m.poll(now);
            m.input_line(now, "+++");
            let _ = m.poll(now + Duration::from_secs(10));
            m.input_line(now + Duration::from_secs(10), "AT");
            assert_eq!(drain_lines(&mut m, now + Duration::from_secs(20)), ["OK"], "seed {seed}");
        }
    }
}
