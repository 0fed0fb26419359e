(* Closed-loop load through the daemon's in-process front door
   ([Server.submit]): each client sends its next line only after its
   previous reply arrived, so at most [clients] requests are outstanding. *)

module Server = Smart_serve.Server

type reply = {
  idx : int;
  line : string;
  sent : float;
  replied : float;
  domain : int;  (** the worker domain that ran the [reply] callback *)
}

(* [next] is called under one lock and hands out [(index, line)] pairs
   in stream order until it returns [None]; the call returns once every
   client has stopped and every reply is in, sorted by index. *)
let closed_loop server ~clients ~next =
  let m = Mutex.create () in
  let all_done = Condition.create () in
  let active = ref clients in
  let replies = ref [] in
  let rec send () =
    match Mutex.protect m next with
    | None ->
      Mutex.protect m (fun () ->
          decr active;
          if !active = 0 then Condition.broadcast all_done)
    | Some (idx, line) ->
      let sent = Harness.now () in
      Server.submit server line ~reply:(fun r ->
          let replied = Harness.now () in
          let domain = Harness.domain_id () in
          Mutex.protect m (fun () ->
              replies := { idx; line = r; sent; replied; domain } :: !replies);
          send ())
  in
  for _ = 1 to clients do
    send ()
  done;
  Mutex.protect m (fun () ->
      while !active > 0 do
        Condition.wait all_done m
      done);
  List.sort (fun a b -> compare a.idx b.idx) !replies

(* Block until a worker domain has answered a ping: the daemon is up. *)
let ready server =
  let m = Mutex.create () in
  let answered = Condition.create () in
  let got = ref false in
  Server.submit server {|{"op":"ping"}|} ~reply:(fun _ ->
      Mutex.protect m (fun () ->
          got := true;
          Condition.broadcast answered));
  Mutex.protect m (fun () ->
      while not !got do
        Condition.wait answered m
      done)
