(* Unit tests: Smart_tech (technology parameters). *)

module Tech = Smart_tech.Tech

let checkb msg = Alcotest.(check bool) msg
let checkf tol msg = Alcotest.(check (float tol)) msg

let t = Tech.default

let test_derived_quantities () =
  checkf 1e-9 "res_n inverse in width" (t.Tech.rn /. 2.) (Tech.res_n t 2.);
  checkf 1e-9 "res_p" (t.Tech.rp /. 4.) (Tech.res_p t 4.);
  checkf 1e-9 "gate cap linear" (t.Tech.cg *. 3.) (Tech.cap_gate t 3.);
  checkf 1e-9 "drain cap linear" (t.Tech.cd *. 3.) (Tech.cap_drain t 3.)

let test_fo4_sane () =
  let fo4 = Tech.fo4_delay t in
  (* A 180nm-class FO4 sits in the tens of picoseconds. *)
  checkb "FO4 in 10..100 ps" true (fo4 > 10. && fo4 < 100.)

let test_fo4_width_invariant () =
  (* FO4 is a ratioed metric: uniform RC scaling moves it quadratically
     with the scale factor's square root pair (r*s, c*s) -> fo4*s. *)
  let scaled = Tech.scaled ~rc_scale:4. t in
  checkf 1e-6 "scaling law" (4. *. Tech.fo4_delay t) (Tech.fo4_delay scaled)

let test_scaled_name () =
  let s = Tech.scaled ~rc_scale:2. ~name:"slow" t in
  Alcotest.(check string) "renamed" "slow" s.Tech.name;
  checkb "default suffix" true
    (String.length (Tech.scaled t).Tech.name > String.length t.Tech.name)

let test_scaled_name_normalized () =
  (* Repeated unnamed scaling must not compound the suffix. *)
  let twice = Tech.scaled (Tech.scaled t) in
  Alcotest.(check string) "one suffix only" (t.Tech.name ^ "-scaled")
    twice.Tech.name;
  let thrice = Tech.scaled twice in
  Alcotest.(check string) "still one suffix" (t.Tech.name ^ "-scaled")
    thrice.Tech.name

let test_scaled_cumulative_rc_scale () =
  checkf 1e-9 "default is nominal" 1.0 t.Tech.rc_scale;
  let s = Tech.scaled ~rc_scale:2. (Tech.scaled ~rc_scale:3. t) in
  checkf 1e-9 "composes multiplicatively" 6.0 s.Tech.rc_scale;
  checkf 1e-9 "explicit name keeps the record"
    1.4 (Tech.scaled ~rc_scale:1.4 ~name:"slow" t).Tech.rc_scale

let test_scaled_sqrt_split () =
  (* rc_scale splits as sqrt across R and C so every RC product (hence
     every delay) scales exactly by rc_scale. *)
  let s = Tech.scaled ~rc_scale:4. t in
  checkf 1e-9 "R side takes sqrt" (sqrt 4. *. t.Tech.rn) s.Tech.rn;
  checkf 1e-9 "C side takes sqrt" (sqrt 4. *. t.Tech.cg) s.Tech.cg;
  checkf 1e-9 "RC product scales linearly" (4. *. t.Tech.rn *. t.Tech.cg)
    (s.Tech.rn *. s.Tech.cg)

let test_parameter_sanity () =
  checkb "PMOS weaker" true (t.Tech.rp > t.Tech.rn);
  checkb "bounds ordered" true (t.Tech.w_min < t.Tech.w_max);
  checkb "slope cap above default input slope" true
    (t.Tech.slope_max > t.Tech.default_input_slope)

let () =
  Alcotest.run "smart_tech"
    [
      ( "tech",
        [
          Alcotest.test_case "derived" `Quick test_derived_quantities;
          Alcotest.test_case "fo4 sane" `Quick test_fo4_sane;
          Alcotest.test_case "fo4 scaling" `Quick test_fo4_width_invariant;
          Alcotest.test_case "scaled naming" `Quick test_scaled_name;
          Alcotest.test_case "scaled naming normalized" `Quick
            test_scaled_name_normalized;
          Alcotest.test_case "cumulative rc_scale" `Quick
            test_scaled_cumulative_rc_scale;
          Alcotest.test_case "sqrt RC split" `Quick test_scaled_sqrt_split;
          Alcotest.test_case "parameter sanity" `Quick test_parameter_sanity;
        ] );
    ]
