type action = Error_result of string | Raise of string | Scale of float

type site_state = { action : action; mutable shots : int }

let lock = Mutex.create ()
let armed : (string, site_state) Hashtbl.t = Hashtbl.create 7
let counts : (string, int) Hashtbl.t = Hashtbl.create 7

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let arm ?(count = 1) site action =
  with_lock (fun () -> Hashtbl.replace armed site { action; shots = count })

let reset () =
  with_lock (fun () ->
      Hashtbl.reset armed;
      Hashtbl.reset counts)

let fire site =
  with_lock (fun () ->
      match Hashtbl.find_opt armed site with
      | None -> None
      | Some st when st.shots <= 0 -> None
      | Some st ->
        st.shots <- st.shots - 1;
        if st.shots = 0 then Hashtbl.remove armed site;
        Hashtbl.replace counts site
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts site));
        Some st.action)

let scale site v =
  match fire site with Some (Scale f) -> v *. f | Some _ | None -> v

let fired site =
  with_lock (fun () -> Option.value ~default:0 (Hashtbl.find_opt counts site))
