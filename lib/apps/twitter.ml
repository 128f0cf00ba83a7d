(** The Twitter clone (§5.1.2 / Figure 6).

    Referential integrity is pervasive: timelines reference tweets and
    users, follow edges reference users.  When a user tweets we write the
    tweet into every follower's timeline immediately (the paper's
    design), which makes concurrent tweet/user removals visible.

    Three variants:
    - [Causal]: the unmodified application (violations possible);
    - [Add_wins]: tweeting/retweeting {e restores} the user (and the
      tweet, for retweets) with touch effects — extra update cost on the
      write path (Figure 6's higher tweet/retweet latency);
    - [Rem_wins]: removals win; timeline {e reads} run a compensation
      that filters out tweets deleted concurrently — extra cost on the
      read path instead (Figure 6's higher timeline latency), and
      [rem_user] purges the user's history with a wildcard remove. *)

open Ipa_crdt
open Ipa_store
open Ipa_runtime
open App_ops

type variant = Causal | Add_wins | Rem_wins

type t = { variant : variant; followers_per_user : int }

let create ?(followers_per_user = 8) (variant : variant) : t =
  { variant; followers_per_user }

let k_users = "users"
let k_tweets = "tweets"
let k_timeline u = "timeline:" ^ u
let k_follows u = "follows:" ^ u
let k_retweets t = "retweets:" ^ t

(* deterministic follower sample: user u's followers *)
let followers (app : t) ~(n_users : int) (u : int) : string list =
  List.init app.followers_per_user (fun i ->
      Fmt.str "u%d" ((u + ((i + 1) * 7)) mod n_users))

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let add_user (_ : t) (u : string) : Config.op_exec =
  mk "add_user" true [ (k_users, Config.Shared) ] (fun rep ->
      let tx = Txn.begin_ rep in
      aw_add ~payload:("profile:" ^ u) tx k_users u;
      Config.outcome (Txn.commit tx))

(** Remove a user.  Under rem-wins semantics the user's history is
    purged from other users' timelines with a wildcard remove (paper:
    "IPA can leverage the Rem-wins semantics to purge all the user's
    history"). *)
let rem_user (app : t) ~(n_users : int) (u : string) : Config.op_exec =
  mk "rem_user" true [ (k_users, Config.Exclusive) ] (fun rep ->
      let tx = Txn.begin_ rep in
      aw_remove tx k_users u;
      (match app.variant with
      | Rem_wins ->
          (* purge u's tweets from all follower timelines *)
          let suffix = ":" ^ u in
          let by_u e = Filename.check_suffix e suffix in
          List.iter
            (fun f ->
              let key = k_timeline f in
              let s = aw_get tx key in
              Txn.update tx key
                (Obj.Op_awset (Awset.prepare_remove_where s by_u)))
            (followers app ~n_users
               (int_of_string (String.sub u 1 (String.length u - 1))))
      | Causal | Add_wins -> ());
      Config.outcome (Txn.commit tx))

(** Tweet: create the tweet and push it to every follower's timeline.
    Timeline entries are ["<tid>:<author>"]. *)
let do_tweet (app : t) ~(n_users : int) (u : string) (tid : string) :
    Config.op_exec =
  mk "tweet" true [ (k_users, Config.Shared); (k_tweets, Config.Shared) ] (fun rep ->
      let tx = Txn.begin_ rep in
      aw_add ~payload:("text of " ^ tid) tx k_tweets tid;
      let entry = tid ^ ":" ^ u in
      let uid = int_of_string (String.sub u 1 (String.length u - 1)) in
      List.iter
        (fun f -> aw_add tx (k_timeline f) entry)
        (followers app ~n_users uid);
      (* Add-wins: the tweeting user must not be removable concurrently *)
      (match app.variant with
      | Add_wins -> aw_touch tx k_users u
      | Causal | Rem_wins -> ());
      Config.outcome (Txn.commit tx))

let retweet (app : t) ~(n_users : int) (u : string) (tid : string) :
    Config.op_exec =
  mk "retweet" true [ (k_users, Config.Shared); (k_tweets, Config.Shared) ] (fun rep ->
      let tx = Txn.begin_ rep in
      aw_add tx (k_retweets tid) u;
      let entry = tid ^ ":" ^ u in
      let uid = int_of_string (String.sub u 1 (String.length u - 1)) in
      List.iter
        (fun f -> aw_add tx (k_timeline f) entry)
        (followers app ~n_users uid);
      (match app.variant with
      | Add_wins ->
          (* restore the retweeted tweet and the retweeting user *)
          aw_touch tx k_tweets tid;
          aw_touch tx k_users u
      | Causal | Rem_wins -> ());
      Config.outcome (Txn.commit tx))

let del_tweet (_ : t) (tid : string) : Config.op_exec =
  mk "del_tweet" true [ (k_tweets, Config.Exclusive) ] (fun rep ->
      let tx = Txn.begin_ rep in
      aw_remove tx k_tweets tid;
      Config.outcome (Txn.commit tx))

let follow (_ : t) (a : string) (b : string) : Config.op_exec =
  mk "follow" true [ (k_users, Config.Shared) ] (fun rep ->
      let tx = Txn.begin_ rep in
      aw_add tx (k_follows a) b;
      Config.outcome (Txn.commit tx))

let unfollow (_ : t) (a : string) (b : string) : Config.op_exec =
  mk "unfollow" true [ (k_users, Config.Shared) ] (fun rep ->
      let tx = Txn.begin_ rep in
      aw_remove tx (k_follows a) b;
      Config.outcome (Txn.commit tx))

(** Read a user's timeline.  Rem-wins runs the hiding compensation:
    entries whose tweet was deleted (or author removed) are filtered
    out, at the cost of reading the tweets/users sets too. *)
let timeline (app : t) (u : string) : Config.op_exec =
  mk "timeline" false [] (fun rep ->
      let tx = Txn.begin_ rep in
      let entries = Awset.elements (aw_get tx (k_timeline u)) in
      match app.variant with
      | Causal | Add_wins ->
          (* dangling entries are observed violations in Causal mode *)
          let tweets = aw_get tx k_tweets in
          let violations =
            if app.variant = Causal then
              List.length
                (List.filter
                   (fun e ->
                     match String.index_opt e ':' with
                     | Some i -> not (Awset.mem (String.sub e 0 i) tweets)
                     | None -> false)
                   entries)
            else 0
          in
          ignore (Txn.commit tx);
          Config.outcome ~violations None
      | Rem_wins ->
          let tweets = aw_get tx k_tweets in
          let users = aw_get tx k_users in
          let visible =
            List.filter
              (fun e ->
                match String.index_opt e ':' with
                | Some i ->
                    Awset.mem (String.sub e 0 i) tweets
                    && Awset.mem
                         (String.sub e (i + 1) (String.length e - i - 1))
                         users
                | None -> false)
              entries
          in
          ignore (Txn.commit tx);
          (* the compensation reads two extra objects and filters *)
          Config.outcome
            ~extra_work:(2 + List.length entries - List.length visible)
            None)

(* ------------------------------------------------------------------ *)
(* Workload (Figure 6 operation mix)                                   *)
(* ------------------------------------------------------------------ *)

type workload_params = {
  n_users : int;
  n_tweets : int;
  read_ratio : float;
}

let default_params = { n_users = 100; n_tweets = 500; read_ratio = 0.5 }

let user wp rng = Fmt.str "u%d" (Ipa_sim.Rng.int rng wp.n_users)
let tweet_id wp rng = Fmt.str "tw%d" (Ipa_sim.Rng.int rng wp.n_tweets)

let next_op (app : t) (wp : workload_params) (rng : Ipa_sim.Rng.t)
    ~(region : string) : Config.op_exec =
  ignore region;
  if Ipa_sim.Rng.flip rng wp.read_ratio then timeline app (user wp rng)
  else
    match Ipa_sim.Rng.int rng 7 with
    | 0 -> do_tweet app ~n_users:wp.n_users (user wp rng) (tweet_id wp rng)
    | 1 -> retweet app ~n_users:wp.n_users (user wp rng) (tweet_id wp rng)
    | 2 -> del_tweet app (tweet_id wp rng)
    | 3 -> follow app (user wp rng) (user wp rng)
    | 4 -> unfollow app (user wp rng) (user wp rng)
    | 5 -> add_user app (user wp rng)
    | _ -> rem_user app ~n_users:wp.n_users (user wp rng)

let seed_data (app : t) (wp : workload_params) (cluster : Cluster.t) : unit =
  ignore app;
  let rep = List.hd cluster.Cluster.replicas in
  let tx = Txn.begin_ rep in
  for i = 0 to wp.n_users - 1 do
    aw_add ~payload:(Fmt.str "profile:u%d" i) tx k_users (Fmt.str "u%d" i)
  done;
  for i = 0 to (wp.n_tweets / 2) - 1 do
    aw_add ~payload:(Fmt.str "text %d" i) tx k_tweets (Fmt.str "tw%d" i)
  done;
  match Txn.commit tx with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Fuzzer hooks                                                        *)
(* ------------------------------------------------------------------ *)

(** Fuzzable operations: name and parameter sorts (user arguments must
    be of the form [u<N>] — follower fan-out and history purging parse
    the numeric suffix). *)
let fuzz_ops : (string * string list) list =
  [
    ("add_user", [ "User" ]);
    ("rem_user", [ "User" ]);
    ("do_tweet", [ "User"; "Tweet" ]);
    ("retweet", [ "User"; "Tweet" ]);
    ("del_tweet", [ "Tweet" ]);
    ("follow", [ "User"; "User" ]);
    ("unfollow", [ "User"; "User" ]);
    ("timeline", [ "User" ]);
  ]

(** Dispatch an operation by name with positional string arguments;
    [None] on an unknown name or wrong arity. *)
let exec_op (app : t) ~(n_users : int) (name : string) (args : string list) :
    Config.op_exec option =
  match (name, args) with
  | "add_user", [ u ] -> Some (add_user app u)
  | "rem_user", [ u ] -> Some (rem_user app ~n_users u)
  | "do_tweet", [ u; tid ] -> Some (do_tweet app ~n_users u tid)
  | "retweet", [ u; tid ] -> Some (retweet app ~n_users u tid)
  | "del_tweet", [ tid ] -> Some (del_tweet app tid)
  | "follow", [ a; b ] -> Some (follow app a b)
  | "unfollow", [ a; b ] -> Some (unfollow app a b)
  | "timeline", [ u ] -> Some (timeline app u)
  | _ -> None
