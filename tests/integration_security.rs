//! Integration of the §7.1 security design: certificate-based identification
//! across realms, grid-mapfile mapping, gateway ACLs, Akenti-style policy,
//! and the sensor manager's gateway allow-list.

use jamm_auth::acl::{AccessControlList, Action, GatewayAllowList, Principal};
use jamm_auth::identity::{CertificateAuthority, TrustStore};
use jamm_auth::mapfile::GridMapFile;
use jamm_auth::policy::{AttributeCertificate, PolicyEngine, Requirement, UseCondition};
use jamm_gateway::{EventGateway, GatewayConfig, Predicate};
use jamm_ulm::{Event, Level, Timestamp};

const NOW: u64 = 959_400_000;

fn cpu_event(v: f64) -> Event {
    Event::builder("vmstat", "dpss1.lbl.gov")
        .level(Level::Usage)
        .event_type("CPU_TOTAL")
        .timestamp(Timestamp::from_secs(NOW))
        .value(v)
        .build()
}

#[test]
fn certificate_to_mapfile_to_gateway_acl_chain() {
    // 1. Two sites, two CAs, one trust store at the LBNL gateway.
    let doe_ca = CertificateAuthority::new("/O=Grid/CN=DOE Science Grid CA", 11);
    let ncsa_ca = CertificateAuthority::new("/O=Grid/CN=NCSA CA", 22);
    let mut trust = TrustStore::new();
    trust.add(doe_ca.clone());
    trust.add(ncsa_ca.clone());

    // 2. Users present certificates (one via a delegated proxy).
    let tierney = doe_ca.issue("/O=Grid/O=LBNL/CN=Brian Tierney", NOW, 86_400);
    let tierney_proxy = tierney.issue_proxy(777, NOW, 3_600);
    let remote = ncsa_ca.issue("/O=Grid/O=NCSA/CN=Remote Analyst", NOW, 86_400);
    assert!(trust.verify(&tierney, NOW).is_ok());
    assert!(trust.verify(&remote, NOW).is_ok());
    assert!(doe_ca
        .verify_proxy(&tierney_proxy, &tierney, 777, NOW)
        .is_ok());

    // 3. The grid map file translates subjects to local principals.
    let mapfile = GridMapFile::parse(
        "\"/O=Grid/O=LBNL/CN=Brian Tierney\" tierney\n\"/O=Grid/O=NCSA/CN=Remote Analyst\" guest\n",
    );
    let local_tierney = mapfile.map(tierney_proxy.effective_subject()).unwrap();
    let local_remote = mapfile.map(&remote.subject).unwrap();
    assert_eq!(local_tierney, "tierney");
    assert_eq!(local_remote, "guest");

    // 4. The gateway ACL: locals stream, guests get summaries only.
    let mut acl = AccessControlList::summary_for_others();
    acl.grant(
        Principal::User("tierney".into()),
        "*",
        [
            Action::Lookup,
            Action::SubscribeStream,
            Action::Query,
            Action::Summary,
        ],
    );
    let gateway = EventGateway::new(GatewayConfig::with_acl("gw.lbl.gov:8765", acl));
    for i in 0..30 {
        gateway.publish(&cpu_event(40.0 + i as f64));
    }
    // tierney streams.
    let sub = gateway
        .subscribe()
        .stream()
        .as_consumer(local_tierney)
        .open()
        .expect("internal user may stream");
    gateway.publish(&cpu_event(99.0));
    assert_eq!(sub.events.try_iter().count(), 1);
    // guest cannot stream, but can query and read summaries.
    assert!(gateway
        .subscribe()
        .stream()
        .as_consumer(local_remote)
        .open()
        .is_err());
    assert!(gateway
        .query(local_remote, "dpss1.lbl.gov", "CPU_TOTAL")
        .unwrap()
        .is_some());
    let all = Predicate::everything().compile();
    assert!(!gateway
        .summaries(local_remote, &all, Timestamp::from_secs(NOW + 30))
        .unwrap()
        .is_empty());
}

#[test]
fn akenti_policy_gates_sensor_control_and_expired_credentials_fail() {
    let ca = CertificateAuthority::new("/O=Grid/CN=DOE Science Grid CA", 5);
    let mut policy = PolicyEngine::new();
    policy.trust_attribute_issuer("/O=Grid/CN=LBNL Attribute Authority");
    // Stakeholder: only members of the dpss-operators group may start or
    // reconfigure sensors on the storage cluster; any DOE Grid user may read
    // summaries.
    policy.add_condition(UseCondition {
        stakeholder: "dpss-project".into(),
        resource: "sensor:dpss1.lbl.gov/*".into(),
        requirement: Requirement::Attribute("group".into(), "dpss-operators".into()),
        actions: [
            Action::ControlSensors,
            Action::SubscribeStream,
            Action::Summary,
        ]
        .into_iter()
        .collect(),
    });
    policy.add_condition(UseCondition {
        stakeholder: "dpss-project".into(),
        resource: "sensor:dpss1.lbl.gov/*".into(),
        requirement: Requirement::DnContains("O=Grid".into()),
        actions: [Action::Summary].into_iter().collect(),
    });

    let operator = ca.issue("/O=Grid/O=LBNL/CN=Dan Gunter", NOW, 86_400);
    let operator_attr = AttributeCertificate {
        subject: operator.subject.clone(),
        attribute: "group".into(),
        value: "dpss-operators".into(),
        issuer: "/O=Grid/CN=LBNL Attribute Authority".into(),
        not_after: NOW + 7_200,
    };
    assert!(policy
        .check(
            &operator,
            std::slice::from_ref(&operator_attr),
            "sensor:dpss1.lbl.gov/*",
            Action::ControlSensors,
            NOW
        )
        .is_ok());

    // The same credential after the attribute certificate expires: control is
    // denied, summaries (granted on the DN alone) still work.
    let later = NOW + 10_000;
    assert!(policy
        .check(
            &operator,
            std::slice::from_ref(&operator_attr),
            "sensor:dpss1.lbl.gov/*",
            Action::ControlSensors,
            later
        )
        .is_err());
    assert!(policy
        .check(
            &operator,
            &[operator_attr],
            "sensor:dpss1.lbl.gov/*",
            Action::Summary,
            later
        )
        .is_ok());

    // A random grid user without the attribute never gets control.
    let user = ca.issue("/O=Grid/O=ANL/CN=Someone Else", NOW, 86_400);
    assert!(policy
        .check(
            &user,
            &[],
            "sensor:dpss1.lbl.gov/*",
            Action::ControlSensors,
            NOW
        )
        .is_err());
    assert!(policy
        .check(&user, &[], "sensor:dpss1.lbl.gov/*", Action::Summary, NOW)
        .is_ok());
}

#[test]
fn sensor_manager_accepts_connections_only_from_known_gateways() {
    let ca = CertificateAuthority::new("/O=Grid/CN=DOE Science Grid CA", 9);
    let gw1 = ca.issue("/O=Grid/O=LBNL/CN=gw.lbl.gov", NOW, 86_400);
    let rogue = ca.issue("/O=Grid/O=Somewhere/CN=rogue-gateway", NOW, 86_400);

    let mut allow = GatewayAllowList::new();
    allow.allow(gw1.subject.clone());

    // Both present valid certificates...
    let mut trust = TrustStore::new();
    trust.add(ca);
    assert!(trust.verify(&gw1, NOW).is_ok());
    assert!(trust.verify(&rogue, NOW).is_ok());
    // ...but only the known gateway passes the manager's allow list
    // ("a malicious user can't communicate directly with the sensor manager").
    assert!(allow.check(&gw1.subject).is_ok());
    assert!(allow.check(&rogue.subject).is_err());
}
